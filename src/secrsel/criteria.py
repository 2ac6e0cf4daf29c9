"""Information criteria and predictive loss for fitted chains.

Three families, all cheaper than marginal likelihoods and all "smaller is
better":

* ``dic`` -- deviance at the posterior-mode estimate plus twice an effective
  -parameter count, measured either as twice the gap between the mode's and
  the average log-likelihood (variant 1) or twice the posterior variance of
  the log-likelihood (variant 2).
* ``waic`` -- the data partitioned by individual: minus twice the sum of log
  posterior-mean per-individual likelihoods, plus twice a penalty measured
  per individual by the log-mean/mean-log gap (1), the variance of the
  log-likelihood (2), or twice its mean absolute deviation (3).
* ``posterior_predictive_loss`` -- Gelfand and Ghosh's D-infinity: the
  squared distance between the data and each binary cell's posterior
  predictive mean plus that cell's predictive variance, summed over every
  cell of both capture lists.  The means come exactly from each draw's cell
  probabilities, so no replicate data are simulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import NumericalError
from .marglik import MapEstimate
from .mcmc import Chain
from .model import CaptureDataset, _gaussian, _per_trap, _sigma_rows, squared_distances

VARIANTS = ("DIC1", "DIC2", "WAIC1", "WAIC2", "WAIC3", "PPL")


@dataclass(frozen=True)
class CriterionResult:
    """A model-selection criterion value split into fit and complexity parts.

    ``value = fit_term + penalty``; the penalty holds the full additive
    complexity term (twice the effective parameter count for DIC/WAIC, the
    predictive variance K sum mu (1 - mu) for the predictive loss).
    """

    criterion: str
    value: float
    fit_term: float
    penalty: float


def dic(chain: Chain, map_estimate: MapEstimate, variant: int = 1) -> CriterionResult:
    """Deviance information criterion anchored at the refined posterior mode.

    ``DIC = -2 loglik(mode) + 2 p`` with ``p`` either twice the gap between
    the mode log-likelihood and the posterior mean log-likelihood (variant
    1) or twice the posterior variance of the log-likelihood (variant 2).
    """
    if variant not in (1, 2):
        raise ValueError(f"dic variant must be 1 or 2, got {variant}")
    mean_ll = float(chain.loglik.mean())
    if variant == 1:
        p = 2.0 * (map_estimate.loglik - mean_ll)
    else:
        p = 2.0 * float(chain.loglik.var())
    fit = -2.0 * map_estimate.loglik
    return CriterionResult(f"DIC{variant}", fit + 2.0 * p, fit, 2.0 * p)


def waic(chain: Chain, variant: int = 1) -> CriterionResult:
    """Widely applicable information criterion over the per-individual cache.

    The fit term is ``-2 sum_i log(mean over draws of the likelihood of
    individual i)`` (log-mean by log-sum-exp); the penalty is twice
    ``p_WAIC`` with ``p`` summed over individuals from, per variant:
    1. twice the gap between log-mean-likelihood and mean log-likelihood;
    2. the population variance of the log-likelihood;
    3. twice its mean absolute deviation from the mean.
    """
    if variant not in (1, 2, 3):
        raise ValueError(f"waic variant must be 1, 2, or 3, got {variant}")
    ll = chain.perind  # (n_draws, M)
    dead = np.isneginf(ll).all(axis=0)
    if dead.any():
        row = int(np.flatnonzero(dead)[0])
        raise NumericalError(
            f"individual {row} has zero likelihood in every draw; "
            "its log posterior-mean likelihood is undefined"
        )
    n = chain.n_draws
    log_mean_lik = logsumexp(ll, axis=0) - math.log(n)  # (M,)
    mean_ll = ll.mean(axis=0)
    fit = -2.0 * float(log_mean_lik.sum())
    if variant == 1:
        p = 2.0 * float((log_mean_lik - mean_ll).sum())
    elif variant == 2:
        p = float(ll.var(axis=0).sum())
    else:
        p = 2.0 * float(np.abs(ll - mean_ll).mean(axis=0).sum())
    return CriterionResult(f"WAIC{variant}", fit + 2.0 * p, fit, 2.0 * p)


def posterior_predictive_loss(
    chain: Chain, data: CaptureDataset, *, seed: int | None = None
) -> CriterionResult:
    """Squared-error posterior predictive loss D-infinity over all binary capture cells.

    Under both detection processes a cell (row, trap, occasion) of either list
    is Bernoulli with a probability q that is constant over the K occasions:
    z omega0 k phi under trap entry, z p0 k under direct detection, with k the
    half-normal kernel; row b of the detector-2 list takes q of its owner
    perm[b].  With mu the posterior mean of q over the draws and c the count
    of a (row, trap) pair over the occasions, the loss over both lists is

        fit     = sum_cells (y - mu)^2  = sum_(row, trap) c (1 - mu)^2 + (K - c) mu^2
        penalty = sum_cells mu (1 - mu) = K sum_(row, trap) mu (1 - mu)

    (Gelfand & Ghosh 1998, Biometrika 85:1-11): the expectation of the loss
    estimated from one simulated replicate per draw.  Memory is O(M J): each
    draw adds its included rows' probabilities to the two running sums.
    `seed` is accepted for older callers and ignored; nothing is random.
    """
    if chain.n_draws == 0:
        raise ValueError("cannot compute predictive loss from an empty chain")
    model = chain.model
    m = data.n_augmented
    sum1 = np.zeros((m, data.n_traps))  # by individual, as y1
    sum2 = np.zeros((m, data.n_traps))  # by detector-2 row, as y2
    base = chain.params["omega0"] * chain.params["phi"] if model.has_trap_entry else chain.params["p0"]
    rows, row_of = np.arange(m), np.empty(m, dtype=np.int64)
    for d in range(chain.n_draws):
        on = np.flatnonzero(chain.z[d] == 1)
        sigma = _per_trap(_sigma_rows(model, chain.params_at(d), chain.u[d, on]))
        q = base[d] * _gaussian(squared_distances(chain.s[d, on], data.traps), sigma)
        sum1[on] += q
        row_of[chain.perm[d]] = rows
        sum2[row_of[on]] += q
    k = data.n_occasions
    fit = penalty = 0.0
    for total, count in ((sum1, data.counts.a), (sum2, data.counts.b_rows)):
        mu = total / chain.n_draws
        fit += float((count * (1.0 - mu) ** 2 + (k - count) * mu**2).sum())
        penalty += k * float((mu * (1.0 - mu)).sum())
    return CriterionResult("PPL", fit + penalty, fit, penalty)
