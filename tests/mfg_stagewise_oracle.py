"""Stagewise backward-induction reference for the equilibrium policy.

The peer kernel at (t, j) depends only on the move probability p there,
and the action values at t only on the policy from t on. So the fixed point
policy = softmax(q(policy) / temperature) decouples: going backward from
t = H - 1 with v[t + 1] known, each (t, j) is one scalar equation

    p = sigmoid(dq(p) / temperature),

where dq(p) is q_move - q_wait with the other N - 1 agents moving i.i.d.
with probability p. Each equation is solved by bisection, then
v[t] = max_a q backs up. Written from the model definition with numpy and
math only; the utilities come from mfg_scratch_oracle, which shares no code
with the package.
"""

import functools
import math

import numpy as np

import mfg_scratch_oracle as scratch


@functools.cache
def _log_comb(n):
    """log C(n, k) for k = 0..n, read-only, worked out once per n."""
    log_comb = np.log([float(math.comb(n, i)) for i in range(n + 1)])
    log_comb.flags.writeable = False
    return log_comb


def binomial_pmf(n, probs):
    """Binomial(n, p) pmfs on a new last axis, one per entry of `probs`."""
    k = np.arange(n + 1)
    p = np.asarray(probs, dtype=float)[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        pmf = np.exp(_log_comb(n) + k * np.log(p) + (n - k) * np.log1p(-p))
    # 0 * log(0) is NaN above: p = 0 and p = 1 are point masses
    pmf = np.where(p == 0.0, k == 0, np.where(p == 1.0, k == n, pmf))
    return pmf / pmf.sum(axis=-1, keepdims=True)


def _residual(probs, gain, du, discount, temperature):
    """p - sigmoid(dq / temperature) with dq = du + discount * gain, where
    gain is E[v[t + 1, K + 1] - v[t + 1, K]] over the peers' K moves."""
    with np.errstate(over="ignore"):
        return probs - 1.0 / (1.0 + np.exp(-(du + discount * gain) / temperature))


def stagewise_policy(p, *, grid_points=20001, tol=1e-15):
    """(move, sign_changes) for oracle parameters `p`: the move probability
    solving each (t, j)'s scalar equation, bisected until the bracket is at
    most `tol` wide, and how many times that equation's residual changes
    sign on a `grid_points` grid over [0, 1]. The residual is negative at
    p = 0 and positive at p = 1, so one change means one root."""
    n, horizon = p["n_agents"], p["horizon"]
    discount, temperature = p["discount"], p["temperature"]
    utilities = np.array([[scratch.utility(a, j, p) for a in (0, 1)] for j in range(n + 1)])
    du = utilities[:, 1] - utilities[:, 0]
    # on the grid, j enters the residual only through du, so the sign scan
    # runs once per distinct du and its counts are mapped back to the states
    gaps, gap_of_state = np.unique(du, return_inverse=True)
    # the peers' law depends on p alone, so the grid's pmfs serve every (t, j)
    grid = np.linspace(0.0, 1.0, grid_points)
    grid_pmf = binomial_pmf(n - 1, grid)
    move = np.empty((horizon, n + 1))
    sign_changes = np.empty((horizon, n + 1), dtype=int)
    v = np.zeros(n + 1)
    for t in reversed(range(horizon)):
        dv = v[1:] - v[:-1]
        args = (du, discount, temperature)
        gain = (grid_pmf @ dv)[:, None]
        positive = _residual(grid[:, None], gain, gaps, discount, temperature) > 0.0
        sign_changes[t] = np.count_nonzero(positive[1:] != positive[:-1], axis=0)[gap_of_state]
        lo, hi = np.zeros(n + 1), np.ones(n + 1)
        while np.max(hi - lo) > tol:
            mid = 0.5 * (lo + hi)
            above = _residual(mid, binomial_pmf(n - 1, mid) @ dv, *args) > 0.0
            lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
        move[t] = 0.5 * (lo + hi)
        pmf = binomial_pmf(n - 1, move[t])
        q = utilities + discount * np.stack([pmf @ v[:n], pmf @ v[1:]], axis=-1)
        v = q.max(axis=1)
    return move, sign_changes
