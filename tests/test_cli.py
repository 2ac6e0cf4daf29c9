"""Command-line surface: subcommands, file plumbing, exit codes."""

import re
import shutil
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from secrsel.cli import main
from secrsel.errors import NumericalError
from secrsel.io import load_chain, load_dataset, load_manifest, read_csv
from secrsel.mcmc import McmcConfig, fit
from secrsel.model import ModelId, PriorSpec
from secrsel.simulate import Scenario, simulate_dataset
from secrsel.study import ToolId

TINY_CFG = """\
design = custom
x_min = 0.0
x_max = 2.0
y_min = 0.0
y_max = 2.0
grid_resolution = 0.25
trap_buffer = 0.4
traps_x = 3
traps_y = 3
trap_spacing_x = 0.6
trap_spacing_y = 0.6
n_occasions = 8
n_augmented = 30
n_individuals = 12
n_male = 5
scenario = busy
scenario_busy = 0.3 0.8 0.4 0.25
scenarios = busy
n_sim = 1
n_iter = 300
burn_in = 100
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Config file, a simulated dataset, and four fitted chains."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    assert main(["simulate", "--config", str(cfg), "--seed", "7",
                 "--out", str(root / "sim")]) == 0
    chain_paths = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # sexless models on sexed data
        for model in ModelId:
            out = root / f"fit{model.value}"
            assert main(["fit", "--data", str(root / "sim" / "dataset.txt"),
                         "--model", model.value, "--iterations", "300",
                         "--burn-in", "100", "--seed", "1", "--out", str(out)]) == 0
            chain_paths.append(str(out / "chain.bin"))
    return root, cfg, chain_paths


class TestParser:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "simulate" in capsys.readouterr().out

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["simulate", "--bogus"]) == 1
        assert main(["nonsense"]) == 1
        assert main(["fit", "--data", "x"]) == 1  # missing required args
        assert "usage error" in capsys.readouterr().err


class TestSimulate:
    def test_round_trip_matches_in_memory(self, workdir):
        root, _, _ = workdir
        data = load_dataset(root / "sim" / "dataset.txt")
        expected, _ = simulate_dataset(
            Scenario("busy", 0.3, 0.8, 0.4, 0.25),
            _design_of(), seed=7)
        assert np.array_equal(data.y1, expected.y1)
        assert np.array_equal(data.y2, expected.y2)
        assert np.array_equal(data.u_obs, expected.u_obs)
        assert data.n_full == expected.n_full
        manifest = load_manifest(root / "sim")
        assert manifest["subcommand"] == "simulate" and manifest["seed"] == 7
        assert set(manifest["outputs"]) == {"dataset.txt", "truth.txt"}

    def test_same_invocation_byte_identical(self, workdir, tmp_path):
        root, cfg, _ = workdir
        assert main(["simulate", "--config", str(cfg), "--seed", "7",
                     "--out", str(tmp_path / "again")]) == 0
        for name in ("dataset.txt", "truth.txt"):
            assert (tmp_path / "again" / name).read_bytes() == \
                (root / "sim" / name).read_bytes()

    def test_zero_occasions_fails_before_writing(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CFG.replace("n_occasions = 8", "n_occasions = 0"))
        out = tmp_path / "never"
        assert main(["simulate", "--config", str(bad), "--seed", "1",
                     "--out", str(out)]) == 1
        assert not out.exists()
        assert "usage error" in capsys.readouterr().err

    def test_missing_config_is_data_error(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "none.cfg"),
                     "--seed", "1", "--out", str(tmp_path / "o")]) == 2

    def test_unknown_config_key_rejected(self, tmp_path):
        bad = tmp_path / "typo.cfg"
        bad.write_text(TINY_CFG + "n_occassions = 9\n")
        assert main(["simulate", "--config", str(bad), "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 1

    def test_unknown_scenario_rejected(self, workdir, tmp_path):
        _, cfg, _ = workdir
        assert main(["simulate", "--config", str(cfg), "--scenario", "zebra",
                     "--seed", "1", "--out", str(tmp_path / "o")]) == 1

    def test_generated_seed_printed_stored_reusable(self, workdir, tmp_path, capsys):
        _, cfg, _ = workdir
        out1 = tmp_path / "gen"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        match = re.search(r"generated seed: (\d+)", capsys.readouterr().out)
        assert match, "generated seed was not printed"
        seed = int(match.group(1))
        assert load_manifest(out1)["seed"] == seed
        out2 = tmp_path / "replay"
        assert main(["simulate", "--config", str(cfg), "--seed", str(seed),
                     "--out", str(out2)]) == 0
        assert (out2 / "dataset.txt").read_bytes() == (out1 / "dataset.txt").read_bytes()

    def test_config_search_path_env(self, workdir, tmp_path, monkeypatch):
        _, cfg, _ = workdir
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("SECRSEL_CONFIG_PATH", str(cfg.parent))
        assert main(["simulate", "--config", "tiny.cfg", "--seed", "3",
                     "--out", str(tmp_path / "o")]) == 0


def _design_of():
    from secrsel.model import StateSpace
    from secrsel.simulate import SurveyDesign, make_trap_grid

    space = StateSpace(0.0, 2.0, 0.0, 2.0, grid_resolution=0.25)
    traps = make_trap_grid(space, 0.4, 3, 3, 0.6, 0.6)
    return SurveyDesign(space, traps, n_occasions=8, n_augmented=30,
                        n_individuals=12, n_male=5)


class TestFit:
    def test_chain_file_matches_in_memory_fit(self, workdir):
        root, _, chain_paths = workdir
        chain = load_chain(chain_paths[0])
        assert chain.model is ModelId.M1
        assert chain.n_draws == 200  # 300 iterations - 100 burn-in
        data = load_dataset(root / "sim" / "dataset.txt")
        expected = fit(ModelId.M1, data,
                       McmcConfig(n_iter=300, burn_in=100, seed=1))
        assert np.array_equal(chain.loglik, expected.loglik)
        assert np.array_equal(chain.z, expected.z)
        assert chain.params.keys() == expected.params.keys()
        for k in chain.params:
            assert np.array_equal(chain.params[k], expected.params[k])

    def test_missing_dataset_is_data_error(self, tmp_path, capsys):
        assert main(["fit", "--data", str(tmp_path / "none.txt"), "--model", "M1",
                     "--iterations", "10", "--burn-in", "2", "--seed", "1",
                     "--out", str(tmp_path / "o")]) == 2
        assert "data error" in capsys.readouterr().err

    def test_sexless_model_on_sexed_data_warns(self, workdir, tmp_path):
        root, _, _ = workdir
        with pytest.warns(UserWarning, match="sex labels"):
            code = main(["fit", "--data", str(root / "sim" / "dataset.txt"),
                         "--model", "M4", "--iterations", "20", "--burn-in", "5",
                         "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == 0

    def test_invalid_mcmc_settings_are_usage_errors(self, workdir, tmp_path):
        root, _, _ = workdir
        assert main(["fit", "--data", str(root / "sim" / "dataset.txt"),
                     "--model", "M1", "--iterations", "10", "--burn-in", "10",
                     "--seed", "1", "--out", str(tmp_path / "o")]) == 1

    def test_numerical_failure_exit_code(self, workdir, tmp_path, monkeypatch):
        import secrsel.cli as cli_mod

        def exploding_fit(model, data, cfg):
            raise NumericalError("synthetic numerical failure")

        monkeypatch.setattr(cli_mod, "fit", exploding_fit)
        root, _, _ = workdir
        assert main(["fit", "--data", str(root / "sim" / "dataset.txt"),
                     "--model", "M1", "--iterations", "10", "--burn-in", "2",
                     "--seed", "1", "--out", str(tmp_path / "o")]) == 3


class TestSelect:
    def test_single_tool_row(self, workdir, tmp_path):
        root, _, chains = workdir
        out = tmp_path / "sel"
        assert main(["select", "--data", str(root / "sim" / "dataset.txt"),
                     "--chains", *chains, "--tools", "hm",
                     "--out", str(out)]) == 0
        cols, rows = read_csv(out / "scores.csv", "scores")
        assert cols == ["tool", "score_M1", "score_M2", "score_M3", "score_M4",
                        "selected", "tie"]
        assert len(rows) == 1 and rows[0][0] == "hm"
        assert rows[0][5] in ("M1", "M2", "M3", "M4")

    def test_all_25_tools(self, workdir, tmp_path):
        root, _, chains = workdir
        out = tmp_path / "sel_all"
        assert main(["select", "--data", str(root / "sim" / "dataset.txt"),
                     "--chains", *chains, "--seed", "5",
                     "--out", str(out)]) == 0
        _, rows = read_csv(out / "scores.csv", "scores")
        assert [r[0] for r in rows] == [t.value for t in ToolId]

    def test_unknown_tool_rejected(self, workdir, tmp_path):
        root, _, chains = workdir
        assert main(["select", "--data", str(root / "sim" / "dataset.txt"),
                     "--chains", *chains, "--tools", "aic",
                     "--out", str(tmp_path / "o")]) == 1

    def test_mismatched_dataset_refused(self, workdir, tmp_path, capsys):
        root, cfg, chains = workdir
        other = tmp_path / "other"
        assert main(["simulate", "--config", str(cfg), "--seed", "8",
                     "--out", str(other)]) == 0
        assert main(["select", "--data", str(other / "dataset.txt"),
                     "--chains", *chains, "--tools", "hm",
                     "--out", str(tmp_path / "o")]) == 2
        assert "not fitted to the given dataset" in capsys.readouterr().err

    def test_chain_without_manifest_refused_unless_no_verify(self, workdir, tmp_path):
        root, _, chains = workdir
        bare = tmp_path / "bare"
        bare.mkdir()
        shutil.copy(chains[0], bare / "chain.bin")
        mixed = [str(bare / "chain.bin")] + chains[1:]
        argv = ["select", "--data", str(root / "sim" / "dataset.txt"),
                "--chains", *mixed, "--tools", "hm", "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert main(argv + ["--no-verify"]) == 0

    def test_duplicate_model_rejected(self, workdir, tmp_path):
        root, _, chains = workdir
        assert main(["select", "--data", str(root / "sim" / "dataset.txt"),
                     "--chains", chains[0], chains[0], chains[1], chains[2],
                     "--tools", "hm", "--out", str(tmp_path / "o")]) == 2


@pytest.fixture(scope="module")
def study_dir(workdir, tmp_path_factory):
    _, cfg, _ = workdir
    out = tmp_path_factory.mktemp("cli_study") / "run"
    assert main(["study", "--config", str(cfg), "--seed", "11",
                 "--out", str(out)]) == 0
    return out


class TestStudyAndReport:
    def test_outputs_present(self, study_dir):
        for name in ("selections.csv", "rmse.csv", "correlations.csv",
                     "marglik.csv", "criteria.csv", "manifest.json"):
            assert (study_dir / name).exists(), name
        assert any((study_dir / "checkpoints").iterdir())

    def test_rerun_requires_resume_flag(self, workdir, study_dir, capsys):
        _, cfg, _ = workdir
        assert main(["study", "--config", str(cfg), "--seed", "11",
                     "--out", str(study_dir)]) == 1
        assert "--resume" in capsys.readouterr().err

    def test_resume_reproduces_csvs(self, workdir, study_dir, tmp_path):
        _, cfg, _ = workdir
        before = {n: (study_dir / n).read_bytes()
                  for n in ("selections.csv", "rmse.csv", "correlations.csv",
                            "marglik.csv", "criteria.csv")}
        assert main(["study", "--config", str(cfg), "--seed", "11",
                     "--out", str(study_dir), "--resume"]) == 0
        for name, blob in before.items():
            assert (study_dir / name).read_bytes() == blob, name

    def test_report_prints_proportion_grid(self, study_dir, capsys):
        assert main(["report", "--results", str(study_dir)]) == 0
        out = capsys.readouterr().out
        assert "selection proportions: hm" in out
        assert "busy" in out
        assert "average RMSE of the population size N" in out

    def test_report_single_tool_filter(self, study_dir, capsys):
        assert main(["report", "--results", str(study_dir), "--tool", "waic2"]) == 0
        out = capsys.readouterr().out
        assert "selection proportions: waic2" in out
        assert "selection proportions: hm" not in out
        assert main(["report", "--results", str(study_dir), "--tool", "bogus"]) == 1

    @pytest.mark.parametrize("workers, etas", [(1, ["3m20s", "2m30s", "0s"]),
                                               (2, ["1m40s", "2m30s", "0s"])])
    def test_progress_counts_done_and_estimates_time_left(
            self, tmp_path, monkeypatch, capsys, workers, etas):
        import secrsel.cli as cli_mod

        def stub_study(*args, progress, **kwargs):
            cells = [SimpleNamespace(scenario_id="busy", replicate=rep, status="ok",
                                     wall_time_s=100.0 * rep) for rep in (1, 2, 3)]
            for cell in cells:
                progress(cell)
            return SimpleNamespace(complete_cells=lambda: cells, cells=cells, failures=[])

        monkeypatch.setattr(cli_mod, "run_study", stub_study)
        cfg = tmp_path / "four.cfg"
        cfg.write_text(TINY_CFG.replace("n_sim = 1", "n_sim = 4"))
        out = tmp_path / "run"
        # replicate 0 is loaded from its checkpoint: done, but not in the ETA
        (out / "checkpoints").mkdir(parents=True)
        (out / "checkpoints" / "cell_busy_0.json").write_text("{}")
        assert main(["study", "--config", str(cfg), "--seed", "1", "--out", str(out),
                     "--resume", "--workers", str(workers)]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"cell busy/{rep}: ok ({100 * rep}.0s) {rep + 1}/4 done, ETA {eta}"
            for rep, eta in zip((1, 2, 3), etas)
        ]
        assert "done, ETA" not in captured.out

    def test_report_empty_dir_is_data_error(self, tmp_path, capsys):
        assert main(["report", "--results", str(tmp_path / "void")]) == 2
        assert "data error" in capsys.readouterr().err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "secrsel", "--help"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


def test_import_leaves_out_heavy_scipy_subpackages():
    # secrsel.cli imports every module of the package
    heavy = ("scipy.stats", "scipy.linalg", "scipy.optimize", "scipy.sparse")
    code = f"import sys, secrsel.cli; print([m for m in {heavy!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
