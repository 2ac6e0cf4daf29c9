"""Round-trip and format-validation tests for the file layer."""

import json

import numpy as np
import pytest

from secrsel.errors import DataError
from secrsel.io import (
    fmt,
    load_chain,
    load_config,
    load_dataset,
    load_manifest,
    load_truth,
    parse_config_text,
    read_csv,
    save_chain,
    save_dataset,
    save_truth,
    sha256_file,
    write_csv,
    write_manifest,
)
from secrsel.mcmc import Chain, McmcConfig, fit
from secrsel.model import ModelId, PriorSpec, active_param_names
from secrsel.simulate import Scenario, simulate_dataset

from test_simulate import small_design

BUSY = Scenario("busy", 0.3, 0.8, 0.4, 0.25)


def test_fmt_round_trips_exactly():
    for x in [0.1, 1 / 3, 1e-300, 2.5, -0.0, 123456.789012345678, float("-inf")]:
        assert float(fmt(x)) == x or (x != x)


class TestDatasetFiles:
    def test_round_trip(self, tmp_path):
        data, _ = simulate_dataset(BUSY, small_design(), seed=3)
        p = tmp_path / "data.txt"
        save_dataset(p, data)
        back = load_dataset(p)
        assert np.array_equal(back.y1, data.y1)
        assert np.array_equal(back.y2, data.y2)
        assert np.array_equal(back.u_obs, data.u_obs)
        assert back.n_full == data.n_full
        assert np.array_equal(back.traps.locations, data.traps.locations)
        sp, sp0 = back.statespace, data.statespace
        assert (sp.x_min, sp.x_max, sp.y_min, sp.y_max, sp.grid_resolution) == (
            sp0.x_min, sp0.x_max, sp0.y_min, sp0.y_max, sp0.grid_resolution,
        )
        # writing the loaded dataset again is byte-identical
        p2 = tmp_path / "data2.txt"
        save_dataset(p2, back)
        assert p.read_bytes() == p2.read_bytes()

    def test_rejects_bad_version(self, tmp_path):
        data, _ = simulate_dataset(BUSY, small_design(), seed=3)
        p = tmp_path / "data.txt"
        save_dataset(p, data)
        text = p.read_text().splitlines()
        text[0] = "#%secr-dataset v99"
        p.write_text("\n".join(text))
        with pytest.raises(DataError, match="version"):
            load_dataset(p)

    def test_rejects_wrong_kind(self, tmp_path):
        p = tmp_path / "x.txt"
        p.write_text("#%secr-truth v1\n")
        with pytest.raises(DataError):
            load_dataset(p)

    def test_rejects_out_of_range_record(self, tmp_path):
        data, _ = simulate_dataset(BUSY, small_design(), seed=3)
        p = tmp_path / "data.txt"
        save_dataset(p, data)
        with p.open("a") as fh:
            fh.write("rec 1 999 0 0\n")
        with pytest.raises(DataError, match="out of range"):
            load_dataset(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset(tmp_path / "absent.txt")


class TestTruthFiles:
    def test_round_trip(self, tmp_path):
        _, truth = simulate_dataset(BUSY, small_design(), seed=4)
        p = tmp_path / "truth.txt"
        save_truth(p, truth)
        back = load_truth(p)
        assert back.scenario == truth.scenario
        assert back.n_individuals == truth.n_individuals
        assert back.n_male == truth.n_male
        assert np.array_equal(back.s_true, truth.s_true)
        assert np.array_equal(back.u_true, truth.u_true)
        assert np.array_equal(back.perm_true, truth.perm_true)
        assert back.psi_true == truth.psi_true
        assert back.theta_true == truth.theta_true


@pytest.fixture(scope="module")
def chain():
    data, _ = simulate_dataset(BUSY, small_design(), seed=3)
    return fit(ModelId.M1, data, McmcConfig(n_iter=40, burn_in=10, seed=2))


class TestChainFiles:
    def test_round_trip(self, chain, tmp_path):
        p = tmp_path / "chain.bin"
        save_chain(p, chain)
        back = load_chain(p)
        assert back.model == chain.model and back.seed == chain.seed
        assert back.n_iter == chain.n_iter and back.burn_in == chain.burn_in
        assert back.prior == chain.prior
        assert back.accept == chain.accept
        pairs = [(back.params[k], chain.params[k]) for k in chain.params]
        pairs += [(getattr(back, f), getattr(chain, f))
                  for f in ("z", "u", "s", "perm", "loglik", "logprior", "perind")]
        for got, want in pairs:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert back.n_draws == 30

    def test_rewrite_is_byte_identical(self, chain, tmp_path):
        first, second = tmp_path / "a.bin", tmp_path / "b.bin"
        save_chain(first, chain)
        save_chain(second, load_chain(first))
        assert first.read_bytes() == second.read_bytes()

    def test_rejects_truncated_file(self, chain, tmp_path):
        p = tmp_path / "chain.bin"
        save_chain(p, chain)
        p.write_bytes(p.read_bytes()[:-100])
        with pytest.raises(DataError, match="chain.bin"):
            load_chain(p)

    def test_rejects_trailing_data(self, chain, tmp_path):
        p = tmp_path / "chain.bin"
        save_chain(p, chain)
        p.write_bytes(p.read_bytes() + b"\0")
        with pytest.raises(DataError, match="after the last chain array"):
            load_chain(p)

    def test_rejects_version_1_text_chain(self, tmp_path):
        p = tmp_path / "chain.txt"
        p.write_text("#%secr-chain v1\nmodel M4\nm 3\nseed 1\nn_iter 5\nburn_in 1\n"
                     "sigma_upper 3.0\ncolumns draw,psi\n")
        with pytest.raises(DataError, match="version"):
            load_chain(p)

    def test_rejects_wrong_dtype(self, chain, tmp_path):
        src = tmp_path / "chain.bin"
        save_chain(src, chain)
        cases = [
            ("z", lambda arr: arr.astype(np.float64), "array z is float64"),
            ("perm", lambda arr: arr.astype(np.int32), "array perm is int32"),
            ("perind", lambda arr: arr[:-1], r"array perind is float64 \(\d+,\), expected"),
        ]
        for name, swap, message in cases:
            bad = tmp_path / f"bad_{name}.bin"
            rewrite_record(src, bad, name, swap)
            with pytest.raises(DataError, match=message):
                load_chain(bad)

    def test_rejects_version_2_chain(self, chain, tmp_path):
        # v2 layout: the same header, then dense z/u (uint8), perm (int32)
        # and perind (float64) records
        p = tmp_path / "chain.bin"
        head = {"model": "M1", "seed": 2, "n_iter": 40, "burn_in": 10,
                "sigma_upper": 3.0, "accept": {}}
        with p.open("wb") as fh:
            fh.write(f"#%secr-chain v2\n{json.dumps(head)}\n".encode())
            for k in active_param_names(chain.model):
                np.save(fh, chain.params[k])
            for k in CHAIN_RECORDS:
                np.save(fh, getattr(chain, k))
        with pytest.raises(DataError, match="version 2"):
            load_chain(p)

    @pytest.mark.parametrize("m", [1, 7, 8, 9, 256, 257])
    def test_hand_built_round_trip(self, tmp_path, m):
        chain = hand_built_chain(m)
        first, second = tmp_path / "a.bin", tmp_path / "b.bin"
        save_chain(first, chain)
        back = load_chain(first)
        for name in CHAIN_RECORDS:
            got, want = getattr(back, name), getattr(chain, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        assert all(back.params[k].tobytes() == v.tobytes() for k, v in chain.params.items())
        save_chain(second, back)
        assert first.read_bytes() == second.read_bytes()
        # packed bits, the narrowest perm dtype and included perind entries only
        _, records = read_records(first)
        assert records["z"].shape == records["u"].shape == (chain.n_draws, (m + 7) // 8)
        assert records["perm"].dtype == (np.uint8 if m <= 256 else np.uint16)
        assert records["perind"].shape == (int(chain.z.sum()),)

    @pytest.mark.parametrize("edit, message", [
        (lambda c: c.z.__setitem__((0, 0), 2), "array z"),
        (lambda c: c.u.__setitem__((1, 2), 3), "array u"),
        (lambda c: c.perind.__setitem__(c.z == 0, 0.5), "array perind"),
        (lambda c: c.perind.__setitem__(c.z == 0, -0.0), "array perind"),
        (lambda c: c.perm.__setitem__((0, 0), 9), "array perm"),
        (lambda c: c.perm.__setitem__((0, 0), -1), "array perm"),
    ])
    def test_save_refuses_what_it_cannot_store_exactly(self, tmp_path, edit, message):
        chain = hand_built_chain(9)
        edit(chain)
        p = tmp_path / "chain.bin"
        with pytest.raises(ValueError, match=message):
            save_chain(p, chain)
        assert not p.exists()

    def test_rejects_bits_past_the_last_row(self, tmp_path):
        chain = hand_built_chain(9)
        src, bad = tmp_path / "chain.bin", tmp_path / "bad.bin"
        save_chain(src, chain)
        rewrite_record(src, bad, "u", lambda arr: arr | np.uint8(1))
        with pytest.raises(DataError, match="array u has bits set past row 9"):
            load_chain(bad)


CHAIN_RECORDS = ("loglik", "logprior", "z", "u", "perm", "s", "perind")


def read_records(path):
    """The schema and header lines of a chain file, and its records by name."""
    with open(path, "rb") as fh:
        head = fh.readline() + fh.readline()
        model = ModelId(json.loads(head.splitlines()[1])["model"])
        names = [*active_param_names(model), *CHAIN_RECORDS]
        return head, {k: np.lib.format.read_array(fh) for k in names}


def rewrite_record(src, dst, name, swap):
    """Copy chain file `src` to `dst` with record `name` replaced by `swap(record)`."""
    head, records = read_records(src)
    with open(dst, "wb") as out:
        out.write(head)
        for k, arr in records.items():
            np.save(out, swap(arr) if k == name else arr)


def hand_built_chain(m, n=5, seed=0):
    """A chain with every array drawn at random, perind zero where z = 0."""
    rng = np.random.default_rng(seed)
    z = (rng.random((n, m)) < 0.3).astype(np.uint8)
    z[:, 0] = 1  # a -0.0 at an included row is kept as it is
    perind = np.where(z == 1, rng.normal(size=(n, m)), 0.0)
    perind[0, 0] = -0.0
    return Chain(
        model=ModelId.M2, prior=PriorSpec(sigma_upper=2.5), seed=seed, n_iter=n + 3,
        burn_in=3,
        params={k: rng.random(n) for k in active_param_names(ModelId.M2)},
        z=z, u=(rng.random((n, m)) < 0.5).astype(np.uint8), s=rng.random((n, m, 2)),
        perm=np.stack([rng.permutation(m) for _ in range(n)]).astype(np.int32),
        loglik=perind.sum(axis=1), logprior=rng.normal(size=n), perind=perind,
        accept={"s": 0.25, "perm": 0.0},
    )


class TestResultsCsv:
    def test_round_trip_and_version(self, tmp_path):
        p = tmp_path / "selections.csv"
        rows = [["low", 1, "gd_map_normal", "M1", 0.25], ["high", 2, "dic1", "M3", -1.5]]
        write_csv(p, "selections", ["scenario", "replicate", "tool", "choice", "margin"], rows)
        cols, back = read_csv(p, "selections")
        assert cols == ["scenario", "replicate", "tool", "choice", "margin"]
        assert back[0] == ["low", "1", "gd_map_normal", "M1", "0.25"]
        assert float(back[1][4]) == -1.5
        text = p.read_text().splitlines()
        assert text[0] == "#%secr-selections v1"
        text[0] = "#%secr-selections v2"
        p.write_text("\n".join(text))
        with pytest.raises(DataError, match="version"):
            read_csv(p, "selections")

    def test_rejects_comma_cells(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "x.csv", "rmse", ["a"], [["1,2"]])


class TestConfig:
    def test_parse(self):
        text = """
        # a comment
        n_iter = 500
        scenario = low   # trailing comment
        seeds = 1, 2, 3

        n_iter = 600
        """
        cfg = parse_config_text(text)
        assert cfg["n_iter"] == "600"  # later keys win
        assert cfg["scenario"] == "low"
        assert cfg["seeds"] == "1, 2, 3"

    def test_malformed(self):
        with pytest.raises(DataError, match="key = value"):
            parse_config_text("this has no equals sign")
        with pytest.raises(DataError, match="empty key"):
            parse_config_text(" = 5")

    def test_load(self, tmp_path):
        p = tmp_path / "study.cfg"
        p.write_text("a = 1\n")
        assert load_config(p) == {"a": "1"}
        with pytest.raises(DataError):
            load_config(tmp_path / "none.cfg")


class TestManifest:
    def test_write_and_load(self, tmp_path):
        out = tmp_path / "out.csv"
        out.write_text("#%secr-rmse v1\na\n1\n")
        write_manifest(
            tmp_path,
            subcommand="study",
            seed=42,
            config_text="n_iter = 5",
            inputs=[out],
            outputs=["out.csv"],
            wall_time_s=1.5,
            extra={"n_cells": 4},
        )
        rec = load_manifest(tmp_path)
        assert rec["subcommand"] == "study"
        assert rec["seed"] == 42
        assert rec["status"] == "ok"
        assert rec["n_cells"] == 4
        assert rec["outputs"]["out.csv"] == sha256_file(out)
        assert rec["versions"]["secrsel"]
        # exactly one manifest per directory and it is valid JSON
        assert (tmp_path / "manifest.json").exists()
        json.loads((tmp_path / "manifest.json").read_text())
