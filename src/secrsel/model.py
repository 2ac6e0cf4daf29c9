"""Hierarchical models for dual-detector spatial capture-recapture data.

The sampling situation: a grid of J traps is watched by two independent
detectors (e.g. two camera positions per trap).  Over K occasions each of M
augmented individuals (real animals plus all-zero padding) may walk into a
trap and then be recorded, or not, by each detector.  Individuals recorded by
both detectors on the same trap-occasion are fully identified and their two
capture histories are linked; detector-2 histories of the remaining animals
arrive as an unordered list, so the row-to-individual assignment is a latent
permutation.

Four nested models are supported:

=====  ===========================  =======================================
id     detection structure          sex effect
=====  ===========================  =======================================
M1     trap entry then detection    sex-specific movement scale, sex ratio
M2     direct detection             sex-specific movement scale, sex ratio
M3     trap entry then detection    none
M4     direct detection             none
=====  ===========================  =======================================

"Trap entry then detection" factors a capture into a trap-arrival event with
probability ``omega0 * exp(-d^2 / (2 sigma^2))`` followed by two independent
per-detector recordings with probability ``phi`` each.  "Direct detection"
collapses this into a single per-detector probability
``p0 * exp(-d^2 / (2 sigma^2))``.

Individuals are real with probability ``psi`` (data augmentation); real
animals are male with probability ``theta`` (sex models only) and have an
activity centre uniform on the rectangular state space.  All functions work
in log space and return ``-inf`` for states outside the support (an
individual with captures but z=0, a permutation that unlinks a fully
identified individual, an activity centre outside the state space) rather
than raising.

The detection log-likelihood of rows (`detection_loglik`, over any leading
axes), the linked capture counts (`LinkedCounts`, cached per dataset as
`CaptureDataset.counts`) and the latent prior (`_latent_log_prior`) are each
computed here only; the sampler and the marginal-likelihood estimators call
them rather than repeating them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.special import xlogy

__all__ = [
    "ModelId",
    "PriorSpec",
    "TrapGrid",
    "StateSpace",
    "CaptureDataset",
    "ModelParams",
    "LatentState",
    "active_param_names",
    "trap_entry_prob",
    "detection_prob",
    "reorder_by_permutation",
    "LinkedCounts",
    "detection_counts",
    "detection_loglik",
    "detection_loglik_uncaptured",
    "per_individual_log_likelihood",
    "log_likelihood",
    "log_prior",
    "log_latent_prior",
    "to_transformed",
    "from_transformed",
    "transform_log_jacobian",
]

# Floor for the compound miss factor (1 - eta) + eta (1 - phi)^2 before taking
# logs; keeps 0 * log(0) away from the vectorised path without changing any
# value reachable with parameters in the open support.
_COMP_FLOOR = 1e-300


class ModelId(str, Enum):
    """Identifiers of the four competing models."""

    M1 = "M1"
    M2 = "M2"
    M3 = "M3"
    M4 = "M4"

    @property
    def has_sex_effect(self) -> bool:
        return self in (ModelId.M1, ModelId.M2)

    @property
    def has_trap_entry(self) -> bool:
        return self in (ModelId.M1, ModelId.M3)


#: Scalar parameters that each model actually uses, in canonical order.
_ACTIVE = {
    ModelId.M1: ("psi", "theta", "phi", "omega0", "sigma_m", "sigma_f"),
    ModelId.M2: ("psi", "theta", "p0", "sigma_m", "sigma_f"),
    ModelId.M3: ("psi", "phi", "omega0", "sigma"),
    ModelId.M4: ("psi", "p0", "sigma"),
}

#: Names of movement-scale parameters (uniform on (0, R) a priori).
_SCALE_PARAMS = frozenset({"sigma", "sigma_m", "sigma_f"})


def active_param_names(model: ModelId) -> tuple[str, ...]:
    """Canonical ordering of the scalar parameters of `model`."""
    return _ACTIVE[ModelId(model)]


@dataclass(frozen=True)
class PriorSpec:
    """Independent priors on the scalar parameters.

    Probabilities (psi, theta, phi, omega0, p0) are Uniform(0, 1); movement
    scales (sigma, sigma_m, sigma_f) are Uniform(0, `sigma_upper`).
    """

    sigma_upper: float = 3.0

    def __post_init__(self):
        if not (np.isfinite(self.sigma_upper) and self.sigma_upper > 0):
            raise ValueError(f"sigma_upper must be positive, got {self.sigma_upper}")


@dataclass(frozen=True)
class TrapGrid:
    """Trap coordinates, one row per trap."""

    locations: np.ndarray  # (J, 2) float

    def __post_init__(self):
        loc = np.asarray(self.locations, dtype=float)
        if loc.ndim != 2 or loc.shape[1] != 2 or loc.shape[0] == 0:
            raise ValueError(f"trap locations must be (J, 2), got {loc.shape}")
        if not np.all(np.isfinite(loc)):
            raise ValueError("trap locations must be finite")
        object.__setattr__(self, "locations", loc)

    @property
    def n_traps(self) -> int:
        return self.locations.shape[0]


@dataclass(frozen=True)
class StateSpace:
    """Axis-aligned rectangular state space with a regular integration grid."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    grid_resolution: float = 0.25

    def __post_init__(self):
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("state space must have positive extent")
        if not self.grid_resolution > 0:
            raise ValueError("grid_resolution must be positive")

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of points inside the (closed) rectangle."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (
            (pts[:, 0] >= self.x_min)
            & (pts[:, 0] <= self.x_max)
            & (pts[:, 1] >= self.y_min)
            & (pts[:, 1] <= self.y_max)
        )

    def grid_cells(self, resolution: float | None = None) -> np.ndarray:
        """Centres of the square integration cells, shape (G, 2).

        The extent must be an integer number of cells in each direction;
        anything else silently distorts the uniform measure, so it raises.
        """
        res = self.grid_resolution if resolution is None else float(resolution)
        if res <= 0:
            raise ValueError("resolution must be positive")
        nx = (self.x_max - self.x_min) / res
        ny = (self.y_max - self.y_min) / res
        if abs(nx - round(nx)) > 1e-9 or abs(ny - round(ny)) > 1e-9:
            raise ValueError(
                f"resolution {res} does not evenly divide extent "
                f"({self.x_max - self.x_min} x {self.y_max - self.y_min})"
            )
        nx, ny = int(round(nx)), int(round(ny))
        xs = self.x_min + (np.arange(nx) + 0.5) * res
        ys = self.y_min + (np.arange(ny) + 0.5) * res
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()])


@dataclass
class CaptureDataset:
    """Binary capture histories from the two detector lists.

    Rows 0..n_full-1 of `y1` and `y2` belong to the same (fully identified)
    individuals; rows n_full.. of `y2` are observed detector-2 histories with
    unknown owner, followed by all-zero padding up to M.  `u_obs` holds
    recorded sexes per individual index (1 male, 0 female, -1 unknown).
    """

    y1: np.ndarray  # (M, J, K) uint8
    y2: np.ndarray  # (M, J, K) uint8
    n_full: int
    u_obs: np.ndarray  # (M,) int8
    traps: TrapGrid
    statespace: StateSpace

    def __post_init__(self):
        self.y1 = np.ascontiguousarray(np.asarray(self.y1), dtype=np.uint8)
        self.y2 = np.ascontiguousarray(np.asarray(self.y2), dtype=np.uint8)
        self.u_obs = np.asarray(self.u_obs, dtype=np.int8)
        if self.y1.ndim != 3 or self.y1.shape != self.y2.shape:
            raise ValueError(
                f"y1/y2 must be equal (M, J, K) arrays, got {self.y1.shape} vs {self.y2.shape}"
            )
        if self.y1.shape[1] != self.traps.n_traps:
            raise ValueError("trap axis does not match trap grid")
        if self.u_obs.shape != (self.y1.shape[0],):
            raise ValueError("u_obs must have one entry per augmented individual")
        if self.y1.max(initial=0) > 1 or self.y2.max(initial=0) > 1:
            raise ValueError("capture histories must be binary")
        if not np.all(np.isin(self.u_obs, (-1, 0, 1))):
            raise ValueError("u_obs entries must be -1, 0, or 1")
        if not 0 <= self.n_full <= self.y1.shape[0]:
            raise ValueError(f"n_full={self.n_full} out of range")

    @property
    def n_augmented(self) -> int:
        return self.y1.shape[0]

    @property
    def n_traps(self) -> int:
        return self.y1.shape[1]

    @property
    def n_occasions(self) -> int:
        return self.y1.shape[2]

    @cached_property
    def counts(self) -> "LinkedCounts":
        """Capture counts of both detectors, built on first use and shared."""
        return LinkedCounts(self.y1, self.y2)


# NaN marks "not used by this model"; active entries must be finite.
@dataclass(frozen=True)
class ModelParams:
    """Scalar parameters; inactive entries stay NaN."""

    psi: float = math.nan
    theta: float = math.nan
    phi: float = math.nan
    omega0: float = math.nan
    p0: float = math.nan
    sigma: float = math.nan
    sigma_m: float = math.nan
    sigma_f: float = math.nan

    def as_vector(self, model: ModelId) -> np.ndarray:
        """Active parameters as a vector in canonical order."""
        return np.array([getattr(self, k) for k in active_param_names(model)])

    @staticmethod
    def from_vector(model: ModelId, values) -> "ModelParams":
        names = active_param_names(model)
        values = np.asarray(values, dtype=float)
        if values.shape != (len(names),):
            raise ValueError(f"expected {len(names)} values for {model}, got {values.shape}")
        return ModelParams(**dict(zip(names, values)))

    def updated(self, **kwargs) -> "ModelParams":
        return replace(self, **kwargs)

    def __getitem__(self, name: str) -> float:
        return getattr(self, name)

    def validate(self, model: ModelId) -> None:
        for name in active_param_names(model):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"parameter {name} must be finite for {model}, got {v}")


@dataclass
class LatentState:
    """Latent quantities of the augmented population.

    perm[b] is the individual index that owns detector-2 row b; it must be a
    permutation of 0..M-1.  `u` carries the working sex of every individual
    (ignored by models without a sex effect).
    """

    z: np.ndarray  # (M,) int8 inclusion flags
    u: np.ndarray  # (M,) int8 sexes, 1 male / 0 female
    s: np.ndarray  # (M, 2) activity centres
    perm: np.ndarray  # (M,) int64 detector-2 row assignment

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=np.int8)
        self.u = np.asarray(self.u, dtype=np.int8)
        self.s = np.asarray(self.s, dtype=float)
        self.perm = np.asarray(self.perm, dtype=np.int64)
        m = self.z.shape[0]
        if self.u.shape != (m,) or self.perm.shape != (m,) or self.s.shape != (m, 2):
            raise ValueError("latent component shapes disagree")
        if not np.all((self.z == 0) | (self.z == 1)):
            raise ValueError("z entries must be 0/1")
        if not np.all((self.u == 0) | (self.u == 1)):
            raise ValueError("u entries must be 0/1")

    def copy(self) -> "LatentState":
        return LatentState(self.z.copy(), self.u.copy(), self.s.copy(), self.perm.copy())


def _check_permutation(perm: np.ndarray, m: int) -> None:
    if perm.shape != (m,):
        raise ValueError(f"permutation must have length {m}")
    seen = np.zeros(m, dtype=bool)
    if perm.min(initial=0) < 0 or perm.max(initial=-1) >= m:
        raise ValueError("permutation entries out of range")
    seen[perm] = True
    if not seen.all():
        raise ValueError("perm is not a bijection of 0..M-1")


def trap_entry_prob(omega0: float, sigma: float, d: float | np.ndarray):
    """Probability of walking into a trap at distance d from the centre."""
    if not 0 < omega0 < 1:
        raise ValueError(f"baseline probability must lie in (0, 1), got {omega0}")
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    d = np.asarray(d, dtype=float)
    if np.any(d < 0):
        raise ValueError("distances must be non-negative")
    out = omega0 * np.exp(-(d * d) / (2.0 * sigma * sigma))
    return float(out) if out.ndim == 0 else out


#: Per-detector capture probability at distance d (direct-detection models):
#: the same half-normal curve with baseline p0.
detection_prob = trap_entry_prob


def reorder_by_permutation(y2: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Place detector-2 rows at their owners: result[perm[b]] = y2[b]."""
    y2 = np.asarray(y2)
    perm = np.asarray(perm, dtype=np.int64)
    _check_permutation(perm, y2.shape[0])
    out = np.empty_like(y2)
    out[perm] = y2
    return out


def squared_distances(points: np.ndarray, traps: TrapGrid) -> np.ndarray:
    """Squared Euclidean distances, shape (n_points, J)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    loc = traps.locations
    dx = pts[:, 0, None] - loc[None, :, 0]
    dy = pts[:, 1, None] - loc[None, :, 1]
    return dx * dx + dy * dy


class LinkedCounts:
    """Per-trap capture counts of both detectors under any row assignment.

    Holds detector-1 counts `a` per individual, detector-2 counts `b_rows` per
    row (both (M, J), read-only) and the same-trap same-occasion overlap of
    every nonzero detector-1 row with every nonzero detector-2 row, so the
    linked counts under a permutation are gathers.  One instance serves every
    consumer of a dataset, so its arrays are read-only.
    """

    def __init__(self, y1: np.ndarray, y2: np.ndarray):
        self.a = y1.sum(axis=2, dtype=np.int64)
        self.b_rows = y2.sum(axis=2, dtype=np.int64)
        self.a_any = self.a.any(axis=1)
        self.row_nonzero = self.b_rows.any(axis=1)
        rows1 = np.flatnonzero(self.a_any)
        self._rows2 = np.flatnonzero(self.row_nonzero)
        self._pos1 = np.full(y1.shape[0], -1)
        self._pos1[rows1] = np.arange(rows1.size)
        self._pos2 = np.full(y2.shape[0], -1)
        self._pos2[self._rows2] = np.arange(self._rows2.size)
        self._overlap = np.einsum(
            "ajk,bjk->abj", y1[rows1].astype(np.int64), y2[self._rows2].astype(np.int64)
        )
        self._zero = np.zeros(y1.shape[1], dtype=np.int64)
        for shared in (self.a, self.b_rows, self.a_any, self.row_nonzero, self._overlap, self._zero):
            shared.flags.writeable = False

    def overlap(self, i: int, b: int) -> np.ndarray:
        """Occasions seen by both detectors per trap if row b belongs to i."""
        p1, p2 = self._pos1[i], self._pos2[b]
        return self._overlap[p1, p2] if p1 >= 0 and p2 >= 0 else self._zero

    def linked(self, perm: np.ndarray):
        """Fresh (b, o) per-individual count matrices under `perm`, (M, J)."""
        b = np.empty_like(self.b_rows)
        b[perm] = self.b_rows
        o = np.zeros_like(self.a)
        owners = perm[self._rows2]
        p1 = self._pos1[owners]
        hit = p1 >= 0
        o[owners[hit]] = self._overlap[p1[hit], np.flatnonzero(hit)]
        return b, o


def detection_counts(data: CaptureDataset, perm: np.ndarray):
    """Per-individual per-trap capture counts after linking detector-2 rows.

    Returns (a, b, o): detector-1 counts, linked detector-2 counts, and the
    count of occasions seen by both detectors at the same trap.  All (M, J)
    int64; `a` is the dataset's shared, read-only array.
    """
    perm = np.asarray(perm, dtype=np.int64)
    _check_permutation(perm, data.n_augmented)
    return (data.counts.a, *data.counts.linked(perm))


def _sigma_rows(model: ModelId, params, u: np.ndarray):
    """Movement scale of rows with sexes u (one scalar without a sex effect)."""
    if model.has_sex_effect:
        return np.where(u == 1, params["sigma_m"], params["sigma_f"])
    return params["sigma"]


def _gaussian(dist2: np.ndarray, sigma) -> np.ndarray:
    """exp(-d^2 / (2 sigma^2)); `sigma` broadcasts against `dist2`.

    Not sigma**2: for a scalar that is libm pow, which can differ in the last
    bit from the square an array gets, and the sampler caches both kinds.
    """
    return np.exp(dist2 / (-2.0 * (sigma * sigma)))


def _per_trap(x):
    """Give a per-draw scalar array a trailing axis to broadcast over traps."""
    return x[..., None] if np.ndim(x) else x


def _phi_terms(y_tot, n_tot, phi, ll=0.0):
    """ll plus the log-probability of y_tot records in 2 n_tot detector chances."""
    return ll + xlogy(y_tot, phi) + xlogy(2 * n_tot - y_tot, 1.0 - phi)


def _entry_and_miss(kernel, params):
    """Trap-entry probability eta and the floored compound miss factor comp."""
    phi = params["phi"]
    eta = _per_trap(params["omega0"]) * kernel
    comp = 1.0 - eta * _per_trap(phi * (2.0 - phi))
    np.clip(comp, _COMP_FLOOR, None, out=comp)
    return eta, comp


def detection_loglik(model: ModelId, kernel, a, b, o, k_occ: int, params) -> np.ndarray:
    """Detection log-likelihood of rows as if included, shape kernel.shape[:-1].

    kernel/a/b/o broadcast over shared leading axes and end in the trap axis.
    `params` maps scalar names to floats or to arrays that broadcast against
    the leading axes (e.g. (n_draws, 1) for a batch of draws over rows).
    Sex Bernoulli terms are not included.
    """
    if model.has_trap_entry:
        eta, comp = _entry_and_miss(kernel, params)
        n = a + b - o  # occasions with at least one detector record
        ll = xlogy(n, eta).sum(axis=-1) + ((k_occ - n) * np.log(comp)).sum(axis=-1)
        return _phi_terms((a + b).sum(axis=-1), n.sum(axis=-1), params["phi"], ll)
    p = _per_trap(params["p0"]) * kernel
    y = a + b
    return xlogy(y, p).sum(axis=-1) + xlogy(2 * k_occ - y, 1.0 - p).sum(axis=-1)


def detection_loglik_uncaptured(model: ModelId, kernel, k_occ: int, params) -> np.ndarray:
    """`detection_loglik` of rows never captured (a = b = o = 0), bit for bit.

    Every term with a count factor is xlogy(0, .) = 0 there, and adding those
    zeros changes no bit, so only the miss terms remain.
    """
    if model.has_trap_entry:
        _, comp = _entry_and_miss(kernel, params)
        return (k_occ * np.log(comp)).sum(axis=-1)
    p = _per_trap(params["p0"]) * kernel
    return xlogy(2 * k_occ, 1.0 - p).sum(axis=-1)


def _sex_loglik(u: np.ndarray, theta: float) -> np.ndarray:
    """Bernoulli(theta) log-probability of each sex (1 male, 0 female)."""
    return np.where(u == 1, math.log(theta), math.log1p(-theta))


def per_individual_log_likelihood(
    model: ModelId,
    data: CaptureDataset,
    params: ModelParams,
    latent: LatentState,
) -> np.ndarray:
    """Log-likelihood contribution of each augmented individual, shape (M,).

    Entries for z=0 individuals are 0 when their combined history is empty and
    -inf otherwise (an excluded individual cannot have been captured).  A
    permutation that unlinks one of the first n_full (fully identified) rows
    makes those rows -inf.  The entries always sum to `log_likelihood`.
    """
    model = ModelId(model)
    params.validate(model)
    if latent.z.shape[0] != data.n_augmented:
        raise ValueError("latent state and dataset disagree on M")
    _check_permutation(latent.perm, data.n_augmented)
    return _per_individual(model, data, params, latent.z, latent.u, latent.s, latent.perm)


def _per_individual(model: ModelId, data: CaptureDataset, params, z, u, s, perm) -> np.ndarray:
    """`per_individual_log_likelihood` of one state given as unchecked arrays.

    For callers that check the scalars once and evaluate many states of a
    chain, whose rows are valid by construction (perm a permutation).
    """
    a = data.counts.a
    b, o = data.counts.linked(perm)
    on = np.flatnonzero(z == 1)
    sigma = _per_trap(_sigma_rows(model, params, u[on]))
    kernel = _gaussian(squared_distances(s[on], data.traps), sigma)
    ll = detection_loglik(model, kernel, a[on], b[on], o[on], data.n_occasions, params)
    if model.has_sex_effect:
        ll = ll + _sex_loglik(u[on], params.theta)
    out = np.zeros(data.n_augmented)
    out[on] = ll
    captured = data.counts.a_any | b.any(axis=1)
    out[(z == 0) & captured] = -np.inf
    if data.n_full:
        broken = perm[: data.n_full] != np.arange(data.n_full)
        if broken.any():
            out[perm[: data.n_full][broken]] = -np.inf
    return out


def log_likelihood(
    model: ModelId,
    data: CaptureDataset,
    params: ModelParams,
    latent: LatentState,
) -> float:
    """Joint log-density of both capture lists given all parameters and latents."""
    per = per_individual_log_likelihood(model, data, params, latent)
    return float(per.sum())


def log_prior(model: ModelId, params, prior: PriorSpec):
    """Log prior density of the active scalar parameters (independent uniforms).

    `params` is a `ModelParams` (returns a float) or a mapping of per-draw
    arrays (returns one value per draw).
    """
    model = ModelId(model)
    upper = _scale_upper_bounds(model, prior)
    vec = np.stack([np.asarray(params[k], dtype=float) for k in active_param_names(model)], -1)
    inside = ((vec > 0.0) & (vec < upper)).all(axis=-1)  # NaN fails both tests
    out = np.where(inside, -float(np.log(upper).sum()), -np.inf)
    return float(out) if out.ndim == 0 else out


def _latent_log_prior(model: ModelId, z, u, psi, theta, area: float):
    """Log prior of (z, u, S, perm) for centres inside the state space.

    z/u are (..., M) and psi/theta scalars or per-draw arrays broadcasting
    against the leading axes.  xlogy keeps 0 log 0 = 0, so psi or theta on
    the boundary give finite values whenever the state allows them.
    """
    m = z.shape[-1]
    off = z == 0
    n_off = off.sum(axis=-1)
    out = xlogy(m - n_off, psi) + xlogy(n_off, 1.0 - psi)
    if ModelId(model).has_sex_effect:
        males_off = (off & (u == 1)).sum(axis=-1)
        out = out + xlogy(males_off, theta) + xlogy(n_off - males_off, 1.0 - theta)
    return out - m * math.log(area) - math.lgamma(m + 1)


def log_latent_prior(
    model: ModelId,
    latent: LatentState,
    params: ModelParams,
    statespace: StateSpace,
) -> float:
    """Log prior of (z, u, S, perm) given the scalar parameters.

    Inclusion flags are Bernoulli(psi); sexes of *excluded* individuals are
    Bernoulli(theta) under sex models (sexes of included individuals carry
    their Bernoulli factor inside the likelihood, so the joint contains each
    exactly once); activity centres are uniform on the state space; the
    detector-2 assignment is uniform over all M! permutations.
    """
    model = ModelId(model)
    probs = (params.psi, params.theta) if model.has_sex_effect else (params.psi,)
    if not all(0.0 <= v <= 1.0 for v in probs):  # NaN fails too
        return -math.inf
    if not statespace.contains(latent.s).all():
        return -math.inf
    return float(
        _latent_log_prior(model, latent.z, latent.u, params.psi, params.theta, statespace.area)
    )


# ---------------------------------------------------------------------------
# Transformations to the unconstrained scale used by tuning densities
# ---------------------------------------------------------------------------


def _logit(x):
    # scalars go through libm so the sampler's proposals do not depend on
    # which SIMD log numpy dispatches to
    if np.ndim(x) == 0:
        return math.log(x) - math.log1p(-x)
    return np.log(x) - np.log1p(-x)


def _sigmoid(v):
    if np.ndim(v) == 0:  # libm, as in _logit
        return 0.5 * (1.0 + math.tanh(0.5 * v))
    return 0.5 * (1.0 + np.tanh(0.5 * v))


def _scale_upper_bounds(model: ModelId, prior: PriorSpec) -> np.ndarray:
    return np.array(
        [prior.sigma_upper if k in _SCALE_PARAMS else 1.0 for k in active_param_names(model)]
    )


def to_transformed(params: ModelParams, model: ModelId, prior: PriorSpec) -> np.ndarray:
    """Map active parameters to R^p: logit for probabilities, logit(sigma/R) for scales."""
    model = ModelId(model)
    vec = params.as_vector(model)
    upper = _scale_upper_bounds(model, prior)
    if np.any(vec <= 0) or np.any(vec >= upper):
        raise ValueError("parameters must lie strictly inside the prior support")
    return _logit(vec / upper)


def from_transformed(v: np.ndarray, model: ModelId, prior: PriorSpec) -> ModelParams:
    """Inverse of `to_transformed`."""
    model = ModelId(model)
    v = np.asarray(v, dtype=float)
    upper = _scale_upper_bounds(model, prior)
    if v.shape != upper.shape:
        raise ValueError(f"expected {upper.shape[0]} coordinates for {model}")
    return ModelParams.from_vector(model, _sigmoid(v) * upper)


def _log_jacobian_draws(v: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """log |d params / d v| of the unconstraining transform over v's last axis.

    Each coordinate contributes log(upper * sigmoid'(v)) with
    sigmoid'(v) = sigmoid(v) (1 - sigmoid(v)), evaluated stably.
    """
    return float(np.log(upper).sum()) - (
        np.logaddexp(0.0, v) + np.logaddexp(0.0, -v)
    ).sum(axis=-1)


def transform_log_jacobian(v: np.ndarray, model: ModelId, prior: PriorSpec) -> float:
    """log |d(params)/d(v)| at transformed coordinates v."""
    model = ModelId(model)
    v = np.asarray(v, dtype=float)
    upper = _scale_upper_bounds(model, prior)
    if v.shape != upper.shape:
        raise ValueError(f"expected {upper.shape[0]} coordinates for {model}")
    return float(_log_jacobian_draws(v, upper))
