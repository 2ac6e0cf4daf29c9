"""File formats: datasets, truth records, chains, results CSVs, manifests.

Every file starts with a schema line `#%secr-<kind> v<major>`; readers reject
unknown kinds and major versions.  Floats are written with `repr`, which in
Python 3 is the shortest string that round-trips exactly, so write -> read ->
write is byte-stable.  A chain file (v3) is binary: the schema line, one JSON
header line, then one `np.save` record per array, which is lossless and, unlike
an `.npz` archive, carries no write time; it stores only what each draw
determines (see `save_chain`).

The manifest is a JSON sidecar (`manifest.json`, one per output directory)
recording the subcommand, seeds, configuration hash, input/output digests and
library versions.  Manifests contain timing fields and are therefore the one
output excluded from byte-identity comparisons.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from .errors import DataError
from .model import (
    CaptureDataset,
    ModelId,
    PriorSpec,
    StateSpace,
    TrapGrid,
    active_param_names,
)
from .simulate import Scenario, TruthRecord

__all__ = [
    "FORMAT_VERSIONS",
    "save_dataset",
    "load_dataset",
    "save_truth",
    "load_truth",
    "save_chain",
    "load_chain",
    "write_csv",
    "read_csv",
    "parse_config_text",
    "load_config",
    "sha256_file",
    "write_manifest",
    "load_manifest",
    "fmt",
]

FORMAT_VERSIONS = {
    "dataset": 1,
    "truth": 1,
    "chain": 3,
    "selections": 1,
    "rmse": 1,
    "correlations": 1,
    "marglik": 1,
    "criteria": 1,
    "scores": 1,
}


def fmt(x) -> str:
    """Lossless, byte-stable text for a float."""
    return repr(float(x))


def _schema_line(kind: str) -> str:
    return f"#%secr-{kind} v{FORMAT_VERSIONS[kind]}"


def _check_schema(line: str, kind: str, path) -> None:
    line = line.strip()
    prefix = f"#%secr-{kind} v"
    if not line.startswith(prefix):
        raise DataError(f"{path}: expected '{prefix}<N>' header, got {line!r}")
    try:
        major = int(line[len(prefix):].split(".")[0])
    except ValueError:
        raise DataError(f"{path}: malformed version in header {line!r}")
    if major != FORMAT_VERSIONS[kind]:
        raise DataError(
            f"{path}: unsupported {kind} format version {major} "
            f"(this reader supports v{FORMAT_VERSIONS[kind]})"
        )


# -- datasets ---------------------------------------------------------------


def save_dataset(path, data: CaptureDataset) -> None:
    """Write a capture dataset as sparse text records (lossless)."""
    path = Path(path)
    sp = data.statespace
    lines = [_schema_line("dataset")]
    lines.append(f"m {data.n_augmented}")
    lines.append(f"traps {data.n_traps}")
    lines.append(f"occasions {data.n_occasions}")
    lines.append(f"n_full {data.n_full}")
    lines.append(
        "statespace "
        + " ".join(
            fmt(v)
            for v in (sp.x_min, sp.x_max, sp.y_min, sp.y_max, sp.grid_resolution)
        )
    )
    for x, y in data.traps.locations:
        lines.append(f"trap {fmt(x)} {fmt(y)}")
    for i in np.flatnonzero(data.u_obs >= 0):
        lines.append(f"sex {i} {int(data.u_obs[i])}")
    for det, y in ((1, data.y1), (2, data.y2)):
        for i, j, k in zip(*np.nonzero(y)):
            lines.append(f"rec {det} {i} {j} {k}")
    path.write_text("\n".join(lines) + "\n")


def load_dataset(path) -> CaptureDataset:
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}")
    if not lines:
        raise DataError(f"{path}: empty file")
    _check_schema(lines[0], "dataset", path)
    meta: dict[str, str] = {}
    traps: list[tuple[float, float]] = []
    sex: list[tuple[int, int]] = []
    recs: list[tuple[int, int, int, int]] = []
    for raw in lines[1:]:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, *rest = line.split()
        if key == "trap":
            traps.append((float(rest[0]), float(rest[1])))
        elif key == "sex":
            sex.append((int(rest[0]), int(rest[1])))
        elif key == "rec":
            recs.append(tuple(int(v) for v in rest))
        else:
            meta[key] = " ".join(rest)
    try:
        m = int(meta["m"])
        n_traps = int(meta["traps"])
        k_occ = int(meta["occasions"])
        n_full = int(meta["n_full"])
        sp_vals = [float(v) for v in meta["statespace"].split()]
    except (KeyError, ValueError) as exc:
        raise DataError(f"{path}: missing or malformed header field ({exc})")
    if len(traps) != n_traps:
        raise DataError(f"{path}: expected {n_traps} trap lines, got {len(traps)}")
    space = StateSpace(*sp_vals[:4], grid_resolution=sp_vals[4])
    y1 = np.zeros((m, n_traps, k_occ), dtype=np.int8)
    y2 = np.zeros((m, n_traps, k_occ), dtype=np.int8)
    for det, i, j, k in recs:
        if det not in (1, 2):
            raise DataError(f"{path}: bad detector index {det}")
        if not (0 <= i < m and 0 <= j < n_traps and 0 <= k < k_occ):
            raise DataError(f"{path}: capture record ({det},{i},{j},{k}) out of range")
        (y1 if det == 1 else y2)[i, j, k] = 1
    u_obs = np.full(m, -1, dtype=np.int8)
    for i, v in sex:
        if not 0 <= i < m or v not in (0, 1):
            raise DataError(f"{path}: bad sex record ({i},{v})")
        u_obs[i] = v
    return CaptureDataset(
        y1=y1,
        y2=y2,
        n_full=n_full,
        u_obs=u_obs,
        traps=TrapGrid(np.asarray(traps, dtype=float)),
        statespace=space,
    )


# -- truth records ------------------------------------------------------------


def save_truth(path, truth: TruthRecord) -> None:
    path = Path(path)
    sc = truth.scenario
    lines = [_schema_line("truth")]
    lines.append(f"scenario {sc.scenario_id}")
    for name in ("omega0", "phi", "sigma_m", "sigma_f"):
        lines.append(f"{name} {fmt(getattr(sc, name))}")
    lines.append(f"n_individuals {truth.n_individuals}")
    lines.append(f"n_male {truth.n_male}")
    lines.append(f"psi_true {fmt(truth.psi_true)}")
    lines.append(f"theta_true {fmt(truth.theta_true)}")
    for i in range(truth.n_individuals):
        lines.append(
            f"ind {i} {fmt(truth.s_true[i, 0])} {fmt(truth.s_true[i, 1])} "
            f"{int(truth.u_true[i])}"
        )
    lines.append("perm " + " ".join(str(int(v)) for v in truth.perm_true))
    path.write_text("\n".join(lines) + "\n")


def load_truth(path) -> TruthRecord:
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read truth file {path}: {exc}")
    if not lines:
        raise DataError(f"{path}: empty file")
    _check_schema(lines[0], "truth", path)
    meta: dict[str, str] = {}
    inds: list[tuple[int, float, float, int]] = []
    perm: list[int] = []
    for raw in lines[1:]:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, *rest = line.split()
        if key == "ind":
            inds.append((int(rest[0]), float(rest[1]), float(rest[2]), int(rest[3])))
        elif key == "perm":
            perm = [int(v) for v in rest]
        else:
            meta[key] = " ".join(rest)
    try:
        scenario = Scenario(
            meta["scenario"],
            float(meta["omega0"]),
            float(meta["phi"]),
            float(meta["sigma_m"]),
            float(meta["sigma_f"]),
        )
        n = int(meta["n_individuals"])
        n_male = int(meta["n_male"])
        psi = float(meta["psi_true"])
        theta = float(meta["theta_true"])
    except (KeyError, ValueError) as exc:
        raise DataError(f"{path}: missing or malformed truth field ({exc})")
    if len(inds) != n:
        raise DataError(f"{path}: expected {n} ind lines, got {len(inds)}")
    s = np.zeros((n, 2))
    u = np.zeros(n, dtype=np.int8)
    for i, x, y, ui in inds:
        s[i] = (x, y)
        u[i] = ui
    return TruthRecord(
        scenario=scenario,
        n_individuals=n,
        n_male=n_male,
        s_true=s,
        u_true=u,
        perm_true=np.asarray(perm, dtype=np.int64),
        psi_true=psi,
        theta_true=theta,
    )


# -- chains -------------------------------------------------------------------

# Records after the active scalars, in file order.  A draw determines z, u and
# perm as integers below M and perind only at its included rows, so v3 stores
# z and u as packed bits (`np.packbits` along rows), perm in the narrowest
# unsigned dtype that holds M - 1 and perind as its z == 1 entries in row-major
# order; the other perind entries are +0.0, as the sampler records them.
_CHAIN_RECORDS = ("loglik", "logprior", "z", "u", "perm", "s", "perind")


def _perm_dtype(m: int) -> np.dtype:
    return np.min_scalar_type(max(m - 1, 0))


def save_chain(path, chain) -> None:
    """Chain file: schema line, JSON header line, then one `.npy` record per array.

    Raises ValueError, naming the array, when the chain cannot be stored
    exactly: z or u outside {0, 1}, perind other than +0.0 where z = 0 (so
    -0.0 too), or perm outside [0, M).
    """
    z, u = np.asarray(chain.z), np.asarray(chain.u)
    perm = np.asarray(chain.perm)
    perind = np.ascontiguousarray(chain.perind, dtype=np.float64)
    m = z.shape[1]
    for name, bits in (("z", z), ("u", u)):
        if not ((bits == 0) | (bits == 1)).all():
            raise ValueError(f"chain array {name} holds values other than 0 and 1")
    included = z == 1
    if perind.view(np.uint64)[~included].any():
        raise ValueError("chain array perind is not +0.0 at every row with z = 0")
    if perm.size and (perm.min() < 0 or perm.max() >= m):
        raise ValueError(f"chain array perm holds values outside [0, {m})")
    records = [np.asarray(chain.params[k], dtype=np.float64)
               for k in active_param_names(chain.model)]
    records += [np.asarray(chain.loglik, dtype=np.float64),
                np.asarray(chain.logprior, dtype=np.float64)]
    records += [np.packbits(z, axis=1), np.packbits(u, axis=1)]
    records += [perm.astype(_perm_dtype(m)), np.asarray(chain.s, dtype=np.float64)]
    records.append(perind[included])
    header = {
        "model": chain.model.value,
        "seed": int(chain.seed),
        "n_iter": int(chain.n_iter),
        "burn_in": int(chain.burn_in),
        "sigma_upper": float(chain.prior.sigma_upper),
        "accept": {k: float(v) for k, v in chain.accept.items()},
    }
    with Path(path).open("wb") as fh:
        fh.write(f"{_schema_line('chain')}\n{json.dumps(header, sort_keys=True)}\n".encode())
        for arr in records:
            np.save(fh, arr, allow_pickle=False)


def load_chain(path):
    from .mcmc import Chain

    path = Path(path)
    try:
        with path.open("rb") as fh:
            _check_schema(fh.readline().decode(), "chain", path)
            meta = json.loads(fh.readline())
            model = ModelId(meta["model"])
            names = active_param_names(model)
            # np.load's .npy branch alone: np.load would open a zip record as an
            # archive (raising BadZipFile) instead of refusing it.
            arrays = {
                k: np.lib.format.read_array(fh, allow_pickle=False)
                for k in (*names, *_CHAIN_RECORDS)
            }
            if fh.read(1):
                raise DataError(f"{path}: data after the last chain array")

        def check(k, dtype, shape):
            arr = arrays[k]
            if arr.dtype != dtype or arr.shape != shape:
                raise DataError(
                    f"{path}: chain array {k} is {arr.dtype} {arr.shape}, "
                    f"expected {np.dtype(dtype)} {shape}"
                )

        s = arrays["s"]
        n, m = s.shape[:2] if s.ndim == 3 else (0, 0)
        check("s", np.float64, (n, m, 2))
        for k in (*names, "loglik", "logprior"):
            check(k, np.float64, (n,))
        for k in ("z", "u"):
            check(k, np.uint8, (n, -(-m // 8)))
            if m % 8 and (arrays[k][:, -1] & ((1 << (8 - m % 8)) - 1)).any():
                raise DataError(f"{path}: chain array {k} has bits set past row {m}")
        check("perm", _perm_dtype(m), (n, m))
        if n and arrays["perm"].max() >= m:
            raise DataError(f"{path}: chain array perm holds values outside [0, {m})")
        z = np.unpackbits(arrays["z"], axis=1, count=m)
        included = z == 1
        check("perind", np.float64, (int(np.count_nonzero(included)),))
        perind = np.zeros((n, m))
        perind[included] = arrays["perind"]
        return Chain(
            model=model,
            prior=PriorSpec(sigma_upper=float(meta["sigma_upper"])),
            seed=int(meta["seed"]),
            n_iter=int(meta["n_iter"]),
            burn_in=int(meta["burn_in"]),
            params={k: arrays[k] for k in names},
            accept={k: float(v) for k, v in dict(meta["accept"]).items()},
            loglik=arrays["loglik"],
            logprior=arrays["logprior"],
            z=z,
            u=np.unpackbits(arrays["u"], axis=1, count=m),
            perm=arrays["perm"].astype(np.int32),
            s=s,
            perind=perind,
        )
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataError(f"cannot read chain {path}: {exc}")


# -- results CSVs ---------------------------------------------------------------


def write_csv(path, kind: str, columns: list[str], rows) -> None:
    """Results table with a schema line; cells must not contain commas."""
    path = Path(path)
    out = [_schema_line(kind), ",".join(columns)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(fmt(v))
            else:
                cells.append(str(v))
        line = ",".join(cells)
        if line.count(",") != len(row) - 1:
            raise ValueError(f"cell containing a comma in row {row!r}")
        out.append(line)
    path.write_text("\n".join(out) + "\n")


def read_csv(path, kind: str):
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")
    if not lines:
        raise DataError(f"{path}: empty file")
    _check_schema(lines[0], kind, path)
    if len(lines) < 2:
        raise DataError(f"{path}: missing column header")
    columns = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:] if line.strip()]
    for r in rows:
        if len(r) != len(columns):
            raise DataError(f"{path}: row width {len(r)} != {len(columns)}")
    return columns, rows


# -- configs ----------------------------------------------------------------------


def parse_config_text(text: str) -> dict[str, str]:
    """`key = value` per line; `#` comments; later keys override earlier."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise DataError(f"config line {lineno}: empty key")
        out[key] = value.strip()
    return out


def load_config(path) -> dict[str, str]:
    path = Path(path)
    try:
        return parse_config_text(path.read_text())
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}")


# -- manifests -----------------------------------------------------------------------


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def write_manifest(
    out_dir,
    subcommand: str,
    seed,
    config_text: str = "",
    inputs: list | None = None,
    outputs: list[str] | None = None,
    wall_time_s: float = 0.0,
    status: str = "ok",
    extra: dict | None = None,
) -> Path:
    """One manifest per output directory; outputs are digested relative paths."""
    out_dir = Path(out_dir)
    import scipy

    from . import __version__

    record = {
        "format": "secr-manifest v1",
        "subcommand": subcommand,
        "created_unix": time.time(),
        "wall_time_s": wall_time_s,
        "seed": seed,
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        "config_text": config_text,
        "inputs": {str(p): sha256_file(p) for p in (inputs or [])},
        "outputs": {
            name: sha256_file(out_dir / name) for name in (outputs or [])
        },
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "secrsel": __version__,
        },
        "status": status,
    }
    if extra:
        record.update(extra)
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def load_manifest(out_dir) -> dict:
    path = Path(out_dir) / "manifest.json"
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise DataError(f"cannot read manifest {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: malformed manifest JSON: {exc}")
