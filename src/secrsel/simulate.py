"""Data generation for the dual-detector capture-recapture study.

The generative truth is the full sex-effect trap-entry model: N animals with
uniform activity centres (a fixed number of them male) walk into traps with
probability ``omega0 * exp(-d^2 / (2 sigma_u^2))`` per occasion and, once in a
trap, are recorded independently by each of the two detectors with
probability ``phi``.  Animals recorded by both detectors on a common
trap-occasion are fully identified; the detector-2 histories of everyone else
are presented in random order so that their owner is unknown.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    CaptureDataset,
    ModelId,
    ModelParams,
    StateSpace,
    TrapGrid,
    squared_distances,
)

__all__ = [
    "Scenario",
    "SurveyDesign",
    "TruthRecord",
    "scenario_table",
    "scaled_scenarios",
    "standard_design",
    "scaled_design",
    "make_trap_grid",
    "simulate_dataset",
    "simulate_histories",
]


@dataclass(frozen=True)
class Scenario:
    """One cell of the simulation design: the true detection parameters."""

    scenario_id: str
    omega0: float
    phi: float
    sigma_m: float
    sigma_f: float

    def true_params(self, design: "SurveyDesign") -> ModelParams:
        """Generating parameter values, including the derived psi and theta."""
        return ModelParams(
            psi=design.n_individuals / design.n_augmented,
            theta=design.n_male / design.n_individuals,
            phi=self.phi,
            omega0=self.omega0,
            sigma_m=self.sigma_m,
            sigma_f=self.sigma_f,
        )


# (omega0, phi, sigma_m, sigma_f) per scenario id.
_SCENARIOS = {
    "1": (0.01, 0.3, 0.3, 0.15),
    "2": (0.01, 0.9, 0.3, 0.15),
    "3": (0.01, 0.3, 0.4, 0.20),
    "4": (0.01, 0.9, 0.4, 0.20),
    "5": (0.03, 0.8, 0.3, 0.15),
    "6": (0.03, 0.8, 0.4, 0.20),
    "7": (0.05, 0.3, 0.3, 0.15),
    "8": (0.05, 0.5, 0.3, 0.15),
    "9": (0.05, 0.9, 0.3, 0.15),
    "10": (0.05, 0.3, 0.4, 0.20),
    "11": (0.05, 0.5, 0.4, 0.20),
    "12": (0.05, 0.9, 0.4, 0.20),
}


def scenario_table() -> list[Scenario]:
    """The twelve standard simulation scenarios."""
    return [Scenario(sid, *vals) for sid, vals in _SCENARIOS.items()]


def scaled_scenarios() -> list[Scenario]:
    """Two desk-scale scenarios: a low- and a high-information regime.

    These reuse the detection parameters of the weakest and strongest rows
    of the full-scale scenario table (scenarios 1 and 9) on the small
    `scaled_design` geometry.
    """
    return [
        Scenario("low", 0.01, 0.3, 0.3, 0.15),
        Scenario("high", 0.05, 0.9, 0.3, 0.15),
    ]


@dataclass(frozen=True)
class SurveyDesign:
    """Geometry and effort of a survey plus the augmented population size."""

    statespace: StateSpace
    traps: TrapGrid
    n_occasions: int
    n_augmented: int
    n_individuals: int
    n_male: int

    def __post_init__(self):
        if self.n_occasions <= 0:
            raise ValueError("n_occasions must be positive")
        if not 0 < self.n_individuals <= self.n_augmented:
            raise ValueError("need 0 < n_individuals <= n_augmented")
        if not 0 <= self.n_male <= self.n_individuals:
            raise ValueError("n_male out of range")
        if not self.statespace.contains(self.traps.locations).all():
            raise ValueError("all traps must lie inside the state space")


def make_trap_grid(
    statespace: StateSpace,
    buffer: float,
    n_x: int,
    n_y: int,
    spacing_x: float,
    spacing_y: float,
) -> TrapGrid:
    """Regular n_x-by-n_y trap grid centred in the buffered interior."""
    inner_w = (statespace.x_max - statespace.x_min) - 2 * buffer
    inner_h = (statespace.y_max - statespace.y_min) - 2 * buffer
    span_x = (n_x - 1) * spacing_x
    span_y = (n_y - 1) * spacing_y
    if span_x > inner_w + 1e-12 or span_y > inner_h + 1e-12:
        raise ValueError("trap array does not fit inside the buffered interior")
    x0 = statespace.x_min + buffer + (inner_w - span_x) / 2.0
    y0 = statespace.y_min + buffer + (inner_h - span_y) / 2.0
    xs = x0 + spacing_x * np.arange(n_x)
    ys = y0 + spacing_y * np.arange(n_y)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return TrapGrid(np.column_stack([gx.ravel(), gy.ravel()]))


def standard_design() -> SurveyDesign:
    """Full-scale design: 5 x 7 state space, 10 x 16 traps, 50 occasions.

    Traps sit on a 0.3 (x) by 0.3125 (y) lattice centred one buffer unit in
    from every edge; 100 animals (40 male) inside an augmented population of
    400.
    """
    space = StateSpace(0.0, 5.0, 0.0, 7.0, grid_resolution=0.25)
    traps = make_trap_grid(space, buffer=1.0, n_x=10, n_y=16, spacing_x=0.3, spacing_y=0.3125)
    return SurveyDesign(
        statespace=space,
        traps=traps,
        n_occasions=50,
        n_augmented=400,
        n_individuals=100,
        n_male=40,
    )


def scaled_design() -> SurveyDesign:
    """Desk-scale analogue: 2.5 x 3.5 space, 4 x 6 traps, 10 occasions.

    Keeps the tall orientation and relative trap coverage of the full design
    with 20 animals (8 male) inside an augmented population of 80.
    """
    space = StateSpace(0.0, 2.5, 0.0, 3.5, grid_resolution=0.25)
    traps = make_trap_grid(space, buffer=0.5, n_x=4, n_y=6, spacing_x=0.5, spacing_y=0.5)
    return SurveyDesign(
        statespace=space,
        traps=traps,
        n_occasions=10,
        n_augmented=80,
        n_individuals=20,
        n_male=8,
    )


@dataclass
class TruthRecord:
    """Everything the simulator knew that the analyst is not shown.

    Arrays are aligned with dataset rows 0..N-1 (the true animals; rows N..M-1
    of the dataset are pure augmentation).  `perm_true[b]` is the dataset row
    that owns detector-2 row b, completed deterministically over the all-zero
    padding rows.
    """

    scenario: Scenario
    n_individuals: int
    n_male: int
    s_true: np.ndarray  # (N, 2)
    u_true: np.ndarray  # (N,)
    perm_true: np.ndarray  # (M,)
    psi_true: float
    theta_true: float


def _bernoulli(rng: np.random.Generator, prob: np.ndarray, shape) -> np.ndarray:
    return (rng.random(shape) < prob).astype(np.uint8)


def simulate_histories(
    model: ModelId,
    params: ModelParams,
    z: np.ndarray,
    u: np.ndarray,
    s: np.ndarray,
    perm: np.ndarray,
    traps: TrapGrid,
    n_occasions: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one pair of capture lists from `model` at a full latent state.

    Returns (y1, y2) in dataset layout: y1 rows follow individual indices and
    y2 row b holds the detector-2 history of individual perm[b].  Data
    simulation uses it with the sex-effect trap-entry model.
    """
    model = ModelId(model)
    m = z.shape[0]
    j = traps.n_traps
    dist2 = squared_distances(s, traps)
    if model.has_sex_effect:
        sig = np.where(u == 1, params.sigma_m, params.sigma_f)
    else:
        sig = np.full(m, params.sigma)
    kernel = np.exp(dist2 / (-2.0 * sig[:, None] ** 2))
    shape = (m, j, n_occasions)
    if model.has_trap_entry:
        eta = params.omega0 * kernel
        arrived = _bernoulli(rng, eta[:, :, None], shape)
        h1 = arrived & _bernoulli(rng, params.phi, shape)
        h2 = arrived & _bernoulli(rng, params.phi, shape)
    else:
        p = params.p0 * kernel
        h1 = _bernoulli(rng, p[:, :, None], shape)
        h2 = _bernoulli(rng, p[:, :, None], shape)
    live = (z == 1)[:, None, None]
    h1 &= live
    h2 &= live
    y2 = h2[perm]
    return h1, y2


def simulate_dataset(
    scenario: Scenario,
    design: SurveyDesign,
    seed,
    sex_obs: str = "captured",
) -> tuple[CaptureDataset, TruthRecord]:
    """Simulate one dataset under the sex-effect trap-entry truth.

    sex_obs controls which sexes the analyst sees:

    - "captured" (default): every individual identifiable through detector 1;
    - "full_only": only fully identified individuals;
    - "all": additionally individuals seen only by detector 2 (this attaches a
      sex to a row whose identity the analyst could not actually know, so it
      leaks linkage information; kept for experimentation);
    - "none": no sexes at all.
    """
    if sex_obs not in ("captured", "full_only", "all", "none"):
        raise ValueError(f"unknown sex_obs mode {sex_obs!r}")
    rng = np.random.default_rng(seed)
    space = design.statespace
    n, m = design.n_individuals, design.n_augmented
    params = scenario.true_params(design)

    s_true = np.column_stack(
        [
            rng.uniform(space.x_min, space.x_max, n),
            rng.uniform(space.y_min, space.y_max, n),
        ]
    )
    u_true = np.zeros(n, dtype=np.int8)
    u_true[: design.n_male] = 1

    h1, h2 = simulate_histories(
        ModelId.M1,
        params,
        z=np.ones(n, dtype=np.int8),
        u=u_true,
        s=s_true,
        perm=np.arange(n),
        traps=design.traps,
        n_occasions=design.n_occasions,
        rng=rng,
    )

    cap1 = h1.any(axis=(1, 2))
    cap2 = h2.any(axis=(1, 2))
    full = (h1 & h2).any(axis=(1, 2))  # simultaneous record on both detectors

    # Dataset rows: fully identified first, then detector-1-identifiable,
    # then the remaining true animals, then pure augmentation.
    order = np.concatenate(
        [
            np.flatnonzero(full),
            np.flatnonzero(cap1 & ~full),
            np.flatnonzero(~cap1),
        ]
    )
    row_of = np.empty(n, dtype=np.int64)  # original animal -> dataset row
    row_of[order] = np.arange(n)
    n_full = int(full.sum())

    j, k = design.traps.n_traps, design.n_occasions
    y1 = np.zeros((m, j, k), dtype=np.uint8)
    y1[:n] = h1[order]
    y2 = np.zeros((m, j, k), dtype=np.uint8)
    perm_true = np.full(m, -1, dtype=np.int64)
    y2[:n_full] = h2[order[:n_full]]
    perm_true[:n_full] = np.arange(n_full)

    unlinked = np.flatnonzero(cap2 & ~full)
    shuffled = rng.permutation(unlinked)
    n_unlinked = unlinked.size
    y2[n_full : n_full + n_unlinked] = h2[shuffled]
    perm_true[n_full : n_full + n_unlinked] = row_of[shuffled]

    # Complete the true assignment over all-zero rows deterministically.
    taken = np.zeros(m, dtype=bool)
    taken[perm_true[perm_true >= 0]] = True
    perm_true[n_full + n_unlinked :] = np.flatnonzero(~taken)

    u_rows = np.full(m, -1, dtype=np.int8)  # sexes by dataset row, -1 unknown
    u_rows[row_of] = u_true
    u_obs = np.full(m, -1, dtype=np.int8)
    if sex_obs == "captured":
        reveal = row_of[cap1]
    elif sex_obs == "full_only":
        reveal = row_of[full]
    elif sex_obs == "all":
        reveal = row_of[cap1 | cap2]
    else:
        reveal = np.empty(0, dtype=np.int64)
    u_obs[reveal] = u_rows[reveal]

    data = CaptureDataset(
        y1=y1,
        y2=y2,
        n_full=n_full,
        u_obs=u_obs,
        traps=design.traps,
        statespace=space,
    )
    truth = TruthRecord(
        scenario=scenario,
        n_individuals=n,
        n_male=design.n_male,
        s_true=s_true[order],
        u_true=u_true[order],
        perm_true=perm_true,
        psi_true=n / m,
        theta_true=design.n_male / n,
    )
    return data, truth
