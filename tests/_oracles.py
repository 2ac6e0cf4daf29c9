"""Independent reference implementations used to pin expected test values.

Everything here is deliberately written with plain Python scalars and loops,
term by term from the model definitions, sharing no code with the package.
Slow and obvious beats fast and clever for an oracle.  The one exception is
`replicate_ppl`, which draws replicate data with the package's simulator.
"""

import math
from itertools import permutations, product

import numpy as np

from secrsel.simulate import simulate_histories

NEG_INF = float("-inf")


def _xlog(n, p):
    """n * log(p) with the 0 * log(0) = 0 convention."""
    if n == 0:
        return 0.0
    if p <= 0.0:
        return NEG_INF
    return n * math.log(p)


def brute_log_likelihood(model, y1, y2, n_full, z, u, s, perm, traps, params, n_occ):
    """Term-by-term evaluation of the four model densities.

    y1/y2 are nested lists [individual][trap][occasion]; traps is a list of
    (x, y); params is a plain dict.  Returns the joint log-density of both
    capture lists, -inf outside the support.
    """
    m = len(z)
    n_traps = len(traps)
    for b in range(n_full):
        if perm[b] != b:
            return NEG_INF
    # Detector-2 history of each individual under the assignment.
    y2_of = [None] * m
    for b in range(m):
        y2_of[perm[b]] = y2[b]
    total = 0.0
    for i in range(m):
        captured = any(
            y1[i][j][k] or y2_of[i][j][k] for j in range(n_traps) for k in range(n_occ)
        )
        if z[i] == 0:
            if captured:
                return NEG_INF
            continue
        if model in ("M1", "M3"):
            if model == "M1":
                sig = params["sigma_m"] if u[i] == 1 else params["sigma_f"]
            else:
                sig = params["sigma"]
            phi = params["phi"]
            y_total = sum(
                y1[i][j][k] + y2_of[i][j][k] for j in range(n_traps) for k in range(n_occ)
            )
            n_i = 0
            ll = 0.0
            for j in range(n_traps):
                d2 = (s[i][0] - traps[j][0]) ** 2 + (s[i][1] - traps[j][1]) ** 2
                eta = params["omega0"] * math.exp(-d2 / (2.0 * sig * sig))
                n_ij = sum(
                    1 for k in range(n_occ) if y1[i][j][k] or y2_of[i][j][k]
                )
                n_i += n_ij
                ll += _xlog(n_ij, eta)
                ll += _xlog(n_occ - n_ij, (1.0 - eta) + eta * (1.0 - phi) ** 2)
            ll += _xlog(y_total, phi) + _xlog(2 * n_i - y_total, 1.0 - phi)
        else:
            if model == "M2":
                sig = params["sigma_m"] if u[i] == 1 else params["sigma_f"]
            else:
                sig = params["sigma"]
            ll = 0.0
            for j in range(n_traps):
                d2 = (s[i][0] - traps[j][0]) ** 2 + (s[i][1] - traps[j][1]) ** 2
                p = params["p0"] * math.exp(-d2 / (2.0 * sig * sig))
                y_ij = sum(y1[i][j][k] + y2_of[i][j][k] for k in range(n_occ))
                ll += _xlog(y_ij, p) + _xlog(2 * n_occ - y_ij, 1.0 - p)
        if model in ("M1", "M2"):
            ll += _xlog(u[i], params["theta"]) + _xlog(1 - u[i], 1.0 - params["theta"])
        if ll == NEG_INF:
            return NEG_INF
        total += ll
    return total


def brute_latent_log_prior(model, z, u, s, psi, theta, area, inside):
    """Reference latent prior; `inside` is a list of booleans for s in space."""
    m = len(z)
    total = 0.0
    for i in range(m):
        if not inside[i]:
            return NEG_INF
        total += _xlog(z[i], psi) + _xlog(1 - z[i], 1.0 - psi)
        if model in ("M1", "M2") and z[i] == 0:
            total += _xlog(u[i], theta) + _xlog(1 - u[i], 1.0 - theta)
        total -= math.log(area)
    return total - math.lgamma(m + 1)


def brute_integrated_log_likelihood(
    model, y1, y2, n_full, perm, traps, params, n_occ, cells
):
    """Exhaustive latent marginalisation of the joint model density given perm.

    Sums the likelihood times latent prior mass over every combination of
    inclusion flags, sexes, and grid-cell centres (uniform weight 1/len(cells)
    each); the permutation prior is left out, matching the conditional
    integrated likelihood.  Exponential in M -- only for micro instances.
    """
    m = len(y1)
    g = len(cells)
    sex = model in ("M1", "M2")
    total = 0.0
    for zs in product((0, 1), repeat=m):
        for us in product((0, 1), repeat=m) if sex else [(0,) * m]:
            for assign in product(range(g), repeat=m):
                s = [cells[a] for a in assign]
                ll = brute_log_likelihood(
                    model, y1, y2, n_full, list(zs), list(us), s, perm, traps, params, n_occ
                )
                if ll == NEG_INF:
                    continue
                prior = 1.0
                for i in range(m):
                    prior *= params["psi"] if zs[i] == 1 else 1.0 - params["psi"]
                    # the sex factor of included individuals sits inside the
                    # likelihood; excluded individuals carry it here
                    if sex and zs[i] == 0:
                        prior *= params["theta"] if us[i] == 1 else 1.0 - params["theta"]
                prior /= g ** m
                total += math.exp(ll) * prior
    return math.log(total) if total > 0 else NEG_INF


def enumerate_joint_posterior(model, y1, y2, n_full, traps, params, n_occ, cells):
    """Posterior over (z, perm) with centres on `cells`, by full enumeration.

    Returns a dict {(z tuple, perm tuple): probability}.  Scalars fixed at
    `params`; sexes are summed out for sex models.
    """
    m = len(y1)
    g = len(cells)
    sex = model in ("M1", "M2")
    weights = {}
    for perm in permutations(range(m)):
        for zs in product((0, 1), repeat=m):
            acc = 0.0
            for us in product((0, 1), repeat=m) if sex else [(0,) * m]:
                for assign in product(range(g), repeat=m):
                    s = [cells[a] for a in assign]
                    ll = brute_log_likelihood(
                        model, y1, y2, n_full, list(zs), list(us), s,
                        list(perm), traps, params, n_occ,
                    )
                    if ll == NEG_INF:
                        continue
                    prior = 1.0
                    for i in range(m):
                        prior *= params["psi"] if zs[i] == 1 else 1.0 - params["psi"]
                        if sex and zs[i] == 0:
                            prior *= (
                                params["theta"] if us[i] == 1 else 1.0 - params["theta"]
                            )
                    acc += math.exp(ll) * prior / g ** m
            if acc > 0.0:
                weights[(zs, perm)] = acc
    norm = sum(weights.values())
    return {k: v / norm for k, v in weights.items()}


def replicate_ppl(chain, data, rng):
    """Posterior predictive loss estimated from one replicate dataset per draw.

    Simulates both capture lists at every draw's scalars and latent state;
    with r the per-cell replicate mean the estimate is
    sum (y - r)^2 + r (1 - r) over every binary cell of both lists.  It is
    linear in r, so its expectation is the exact loss of the posterior
    predictive means.
    """
    count1 = np.zeros(data.y1.shape)
    count2 = np.zeros(data.y2.shape)
    for d in range(chain.n_draws):
        rep1, rep2 = simulate_histories(
            chain.model, chain.params_at(d), chain.z[d], chain.u[d], chain.s[d],
            chain.perm[d].astype(np.int64), data.traps, data.n_occasions, rng,
        )
        count1 += rep1
        count2 += rep2
    total = 0.0
    for y, count in ((data.y1, count1), (data.y2, count2)):
        r = count / chain.n_draws
        total += float(((y - r) ** 2 + r * (1.0 - r)).sum())
    return total
