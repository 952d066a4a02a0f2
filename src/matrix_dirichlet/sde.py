"""Euler-Maruyama integration for any DiffusionModel.

The generator convention L = sum g^ij d2_ij + sum b^i d_i carries no 1/2
in front of the second-order term, so the SDE matching it is

    dX = b dt + sigma dW   with   sigma sigma^T = 2 g.

The factor 2 is easy to drop and hard to notice, so only `diffusion_factor`
makes it.  Dropped from sigma alone it gives 1/2 g d2 + b d, whose stationary
law differs (only scaling g and b together is a time change).

Steps that leave the model's domain are retried with halved step size,
chaining accepted sub-steps until the full increment is consumed.  Paths
stream their moments; batch means (20 batches) give an effective sample
size and a standard error for the mean.
"""

import csv
import functools
import json
import math

import numpy as np
from scipy.linalg.lapack import dpstrf

from .errors import NotPsdError, StepRejectedError

_N_BATCHES = 20  # batch-means batches of every simulated path
_MAX_STEP_RETRIES = 8  # halvings of one sub-step before a path fails
_CSV_BLOCK = 4096  # rows per write of a CSV file
# Sub-steps of one outer step before a path fails.  The step size only
# shrinks within an outer step, so without this bound a dt far too large
# for the model can leave h so small that the step never ends.
_MAX_SUBSTEPS = 4096


class SimConfig:
    """Integration parameters: step size, length, thinning, seed.

    The recorded states, (n_steps - burn_in) // thin, must cover the 20
    batch-means batches.
    """

    def __init__(self, dt, n_steps, thin=1, seed=0, burn_in=0):
        if not 0 < dt < np.inf:
            raise ValueError("dt must be positive and finite, got %r" % dt)
        if thin < 1:
            raise ValueError("thin must be >= 1")
        if not (0 <= burn_in < n_steps):
            raise ValueError("burn_in must lie in [0, n_steps)")
        count = (n_steps - burn_in) // thin
        if count < _N_BATCHES:
            raise ValueError("only %d recorded states for %d batches"
                             % (count, _N_BATCHES))
        self.dt = float(dt)
        self.n_steps = int(n_steps)
        self.thin = int(thin)
        self.seed = int(seed)
        self.burn_in = int(burn_in)

    def to_dict(self):
        return {"dt": self.dt, "n_steps": self.n_steps, "thin": self.thin,
                "seed": self.seed, "max_step_retries": _MAX_STEP_RETRIES,
                "burn_in": self.burn_in}


@functools.cache
def _lower_mask(n):
    """Read-only lower-triangular 0/1 mask of order n, built once per
    order (np.tril builds a new one on every call)."""
    mask = np.tri(n)
    mask.flags.writeable = False
    return mask


def diffusion_factor(G):
    """Matrix sigma with sigma sigma^T = 2 G, via pivoted Cholesky.

    Diagonal pivoting handles semidefinite G (boundary points of the
    state space), where the factor has trailing zero columns.  Raises
    NotPsdError for a non-finite G or an eigenvalue below -1e-10 * scale.
    """
    G = np.asarray(G, dtype=float)
    A = G + G.T  # = 2 G for symmetric G, symmetrizes roundoff otherwise
    scale = max(float(np.abs(A).max()), 1e-300)
    if not scale < np.inf:  # NaN, or an infinite entry
        raise NotPsdError("matrix is not finite")
    # tol -1 (the default) and lower, by position: f2py parses keywords slowly
    c, piv, rank, info = dpstrf(A, -1.0, 1)
    if info < 0:
        raise NotPsdError("pivoted Cholesky failed (info %d)" % info)
    n = A.shape[0]
    c *= _lower_mask(n)  # the strict upper triangle still holds A
    if rank < n:
        c[:, rank:] = 0.0
    # undo the permutation A = P L L^T P^T: row piv[k] - 1 of sigma is
    # row k of c (the gather is C-ordered, like the scatter it replaces)
    sigma = c.take(piv.argsort(), axis=0)
    R = sigma @ sigma.T
    R -= A
    resid = float(np.abs(R, out=R).max())
    if not resid <= 1e-10 * scale:  # a NaN residual fails too
        raise NotPsdError(
            "matrix is not psd (factor residual %.3e)" % resid)
    return sigma


def _em_chain(model, x, dt, rng):
    """Advance time dt with step-halving on domain exits.

    Returns (x', n_rejections).  Raises StepRejectedError once a single
    sub-step has been halved more than _MAX_STEP_RETRIES times, or once the
    step has taken _MAX_SUBSTEPS sub-steps.
    """
    x = np.asarray(x, dtype=float)
    drift, gamma, inside = model.drift, model.gamma, model.domain_test
    normal = rng.standard_normal
    t_end = dt * (1.0 - 1e-12)
    t = 0.0
    h = dt
    n_rej = 0
    fails = 0
    for _ in range(_MAX_SUBSTEPS):
        if not t < t_end:
            return x, n_rej
        h = min(h, dt - t)
        b = np.asarray(drift(x))
        sigma = diffusion_factor(gamma(x))
        xi = normal(x.size)
        prop = x + b * h + math.sqrt(h) * (sigma @ xi)
        if inside(prop):
            x = prop
            t += h
            fails = 0
        else:
            n_rej += 1
            fails += 1
            if fails > _MAX_STEP_RETRIES:
                raise StepRejectedError("step left the domain after %d "
                                        "halvings" % _MAX_STEP_RETRIES,
                                        position=x, proposal=prop)
            h *= 0.5
    if t < t_end:
        raise StepRejectedError(
            "step of length %g not done after %d sub-steps (h = %.3g): dt "
            "is too large for this model" % (dt, _MAX_SUBSTEPS, h),
            position=x)
    return x, n_rej


class PathSummary:
    """Streaming moments of a simulated path.

    mean and second are the sample mean and second-moment matrix of the
    recorded (post burn-in, thinned) states; ess and se_mean come from
    20-batch batch means.  states is the recorded array when requested.
    """

    def __init__(self, dim, count, mean, second, batch_means, n_rejections,
                 config, states=None):
        self.dim = dim
        self.count = count
        self.mean = mean
        self.second = second
        self.cov = second - np.outer(mean, mean)
        self.n_rejections = n_rejections
        self.config = config
        self.states = states
        nb = batch_means.shape[0]
        var_bm = np.var(batch_means, axis=0, ddof=1)
        self.se_mean = np.sqrt(var_bm / nb)
        var_x = np.clip(np.diag(self.cov), 1e-300, None)
        with np.errstate(divide="ignore"):
            self.ess = np.minimum(count, var_x / np.clip(
                var_bm, 1e-300, None) * nb)

    @property
    def rejection_fraction(self):
        return self.n_rejections / max(self.config.n_steps, 1)


def simulate(model, x0, config, record=False):
    """Integrate the model from x0 and stream moments.

    Deterministic given config.seed (counter-based Philox stream).
    Records every thin-th state after burn_in.
    """
    x = np.asarray(x0, dtype=float).copy()
    if not model.domain_test(x):
        raise StepRejectedError("x0 outside the domain", position=x)
    rng = np.random.Generator(np.random.Philox(config.seed))
    count = (config.n_steps - config.burn_in) // config.thin
    nb = _N_BATCHES
    bs = count // nb
    used = nb * bs
    dim = x.size
    s1 = np.zeros(dim)
    s2 = np.zeros((dim, dim))
    batch_means = np.zeros((nb, dim))
    states = np.empty((count, dim)) if record else None
    n_rej = 0
    recorded = 0
    dt, burn_in, thin = config.dt, config.burn_in, config.thin
    for step in range(config.n_steps):
        x, rej = _em_chain(model, x, dt, rng)
        n_rej += rej
        k = step - burn_in
        if k >= 0 and (k + 1) % thin == 0 and recorded < count:
            s1 += x
            s2 += np.outer(x, x)
            if record:
                states[recorded] = x
            if recorded < used:
                batch_means[recorded // bs] += x / bs
            recorded += 1
    return PathSummary(dim, count, s1 / count, s2 / count, batch_means,
                       n_rej, config, states=states)


def write_path_csv(summary, path, names=None):
    """Recorded states as CSV: three metadata comment lines, a header
    row of coordinate names, then one row per state."""
    if summary.states is None:
        raise ValueError("summary was built without record=True")
    dim = summary.dim
    if names is None:
        names = ["x%d" % i for i in range(dim)]
    with open(path, "w", newline="") as fh:
        fh.write("# config: %s\n" % json.dumps(summary.config.to_dict()))
        fh.write("# count: %d\n" % summary.count)
        fh.write("# rejections: %d\n" % summary.n_rejections)
        csv.writer(fh).writerow(names)
        _write_rows(fh, summary.states)


def _write_rows(fh, rows):
    """The rows of a 2-D float array as CSV lines of "%.12g" values, the
    bytes csv.writer gives them, formatted and written _CSV_BLOCK rows at a
    time."""
    fmt = ",".join(["%.12g"] * rows.shape[1]) + "\r\n"
    for start in range(0, len(rows), _CSV_BLOCK):
        fh.write("".join([fmt % tuple(row) for row in
                          rows[start:start + _CSV_BLOCK].tolist()]))
