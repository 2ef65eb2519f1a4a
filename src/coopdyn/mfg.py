"""Discrete-time mean-field game for a threshold intersection.

The shared state j in {0..N} is how many agents moved last round. Each
agent picks wait (0) or move (1); the other N-1 agents are modelled as
moving i.i.d. with the population policy's move probability at the current
state, so the next count is own action + Binomial(N-1, p). The module
provides the reward/utility evaluation (one array formula), the exact
binomial transition closure, forward distribution flow (policy checked
once, every step run in its loop), backward action-value recursion with a
hard max, Boltzmann policy extraction, an equilibrium solver (backward
induction, one scalar equation per step and utility gap, verified by
damped fixed-point sweeps), a best-response exploitability certificate,
and a finite-population Monte Carlo consistency check.

In the finite population every agent at state j moves with the same
probability, so an episode's next count is exactly Binomial(N, p).
Episodes are i.i.d. chains, so the Monte Carlo check samples their visit
histogram instead of the episodes: one Multinomial(episodes at the row,
Binomial(N, p)) draw per (step, kernel row in use), all from a single
seeded generator, at a cost that does not grow with the episode count.

A policy's kernels are stored as one stack: its distinct binomial rows
plus a (horizon, N+1) index, so every (t, j) whose policy moves with the
same probability shares one row. The rows are built a block of about
2**16 cells at a time, which bounds the build's temporaries. For U
distinct move probabilities in the whole policy, a stack costs O(U*N) to
build. A small stack is multiplied whole at every step, O(U*N*H) a sweep;
above _SELECT_CELLS cells each step multiplies only its own rows, so a
sweep costs O(sum_t U_t*N), where U_t is the number of distinct move
probabilities at step t, instead of O(N^2*H). Table-mode rewards without
a consistency penalty depend on the state only through j <= threshold,
which keeps U_t at 3 or fewer.
A stack travels with the policy it was built from, as a private pair that
an evaluator builds or the solver hands it, so no caller can evaluate a
policy against another's kernels. A solve builds iterations + 1 stacks;
the induction before them reads its pmf rows step by step, storing none.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NumericalIntegrityError, ValidationError, _check_count, _check_discount
from .errors import _check_finite_fields, _check_number, _check_unread

WAIT = 0
MOVE = 1

# a kernel step may lose or gain at most this much mass
_DRIFT_TOL = 1e-12
# inputs are allowed a looser slack: callers may have accumulated rounding
_INPUT_TOL = 1e-9


@dataclass(frozen=True)
class RewardTable:
    """Per-round rewards for the four (action, congestion) cases.

    Moving through a clear intersection pays best, waiting while it is
    clear is still decent, waiting in congestion pays little, moving into
    congestion pays least.
    """

    move_clear: float = 1.0
    wait_clear: float = 0.6
    wait_congested: float = 0.2
    move_congested: float = 0.0

    def __post_init__(self):
        _check_finite_fields(self)
        ok = (
            self.move_clear > self.wait_clear >= self.wait_congested
            > self.move_congested
        )
        if not ok:
            raise ValidationError(
                "reward table must satisfy move_clear > wait_clear >= "
                "wait_congested > move_congested"
            )


@dataclass(frozen=True)
class MfgParams:
    """Model parameters.

    n_agents is the population size N used both by the binomial closure and
    the finite-population simulator; threshold is the congestion cutoff
    (state j <= threshold counts as clear). reward_mode picks between the
    four-case table and the logistic formula with `smoothing` width and
    `reward_offset` added on top. consistency_weight penalizes |j -
    threshold| inside the utility and preference_baseline shifts it.
    initial_distribution is the state law at t=0 (default: point mass at 0,
    nobody moved before the first round).
    """

    n_agents: int
    threshold: int
    discount: float = 0.9
    smoothing: float = 1.0
    reward_offset: float = 0.0
    consistency_weight: float = 0.0
    preference_baseline: float = 0.0
    temperature: float = 1.0
    horizon: int = 30
    reward_mode: str = "table"
    reward_table: RewardTable = RewardTable()
    initial_distribution: tuple[float, ...] | None = None

    def __post_init__(self):
        _check_finite_fields(self)
        _check_count("n_agents", self.n_agents, 2)
        _check_count("threshold", self.threshold, 1, self.n_agents)
        _check_discount(self.discount)
        if not self.smoothing > 0.0:
            raise ValidationError("smoothing must be positive")
        _check_temperature(self.temperature)
        _check_count("horizon", self.horizon, 1)
        if 16 * (self.horizon + 1) * (self.n_agents + 1) > np.iinfo(np.intp).max:
            raise ValidationError("n_agents, horizon: a (horizon + 1) x (n_agents + 1) x 2 "
                                  "float64 array is larger than numpy's size limit")
        if self.consistency_weight < 0.0:
            raise ValidationError("consistency_weight must be nonnegative")
        if self.reward_mode not in ("table", "formula"):
            raise ValidationError("reward_mode must be 'table' or 'formula'")
        other = "formula" if self.reward_mode == "table" else "table"
        read_only_by = {"table": ("reward_table",), "formula": ("smoothing", "reward_offset")}
        _check_unread({key: getattr(self, key) for key in read_only_by[other]}, vars(MfgParams),
                      f"when reward_mode is {other!r}")
        if self.initial_distribution is not None:
            _check_distribution(self.initial_distribution, self.n_agents)


def default_params() -> MfgParams:
    """The canonical demo instance used throughout the docs and tests."""
    return MfgParams(n_agents=20, threshold=8, temperature=0.2)


def initial_distribution_array(params: MfgParams) -> np.ndarray:
    if params.initial_distribution is None:
        dist = np.zeros(params.n_agents + 1)
        dist[0] = 1.0
        return dist
    # entries down to -_INPUT_TOL are accepted; clipping them keeps the law
    # (and the simulator's start-state draw) a true distribution
    dist = np.clip(np.asarray(params.initial_distribution, dtype=float), 0.0, None)
    return dist / dist.sum()


def _check_distribution(dist, n_agents: int) -> None:
    """`dist` must be n_agents + 1 finite numbers, each at least -_INPUT_TOL,
    that sum to 1 within _INPUT_TOL."""
    try:
        dist = np.asarray(dist, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"initial_distribution must be a numeric array: {exc}") from exc
    if dist.shape != (n_agents + 1,):
        raise ValidationError("initial_distribution must have n_agents + 1 entries")
    if not np.isfinite(dist).all():
        raise ValidationError("initial_distribution has non-finite entries")
    if np.any(dist < -_INPUT_TOL):
        raise ValidationError("initial_distribution has negative entries")
    if abs(float(dist.sum()) - 1.0) > _INPUT_TOL:
        raise ValidationError(f"initial_distribution is not normalized (sum={dist.sum()!r})")


def _check_temperature(temperature) -> None:
    """A temperature must be a positive number whose reciprocal is finite:
    above 1 / float max, about 5.56e-309, where dividing by it overflows."""
    if (not isinstance(temperature, (int, float, np.integer, np.floating))
            or isinstance(temperature, bool) or not temperature > 1.0 / sys.float_info.max):
        raise ValidationError(f"temperature must be a positive number with a finite "
                              f"reciprocal, got {temperature!r}")


def _check_policy(policy, params: MfgParams) -> np.ndarray:
    """The policy as a float array of shape (horizon, n_agents + 1, 2) whose
    every (wait, move) pair is a finite probability distribution."""
    try:
        policy = np.asarray(policy, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"policy must be a numeric array of shape (horizon, n_agents + 1, 2): {exc}"
        ) from exc
    if policy.shape != (params.horizon, params.n_agents + 1, 2):
        raise ValidationError(
            "policy must have shape (horizon, n_agents + 1, 2); got "
            f"{policy.shape} for horizon {params.horizon}, N {params.n_agents}"
        )
    if not np.isfinite(policy).all():
        raise ValidationError("policy has non-finite entries")
    # one temporary, computed in place: a reduction over the length-2 axis is
    # slow, and extra full-size temporaries raise the simulator's peak memory
    gap = policy[..., WAIT] + policy[..., MOVE]
    gap -= 1.0
    if np.max(np.abs(gap, out=gap)) > _INPUT_TOL or policy.min() < -_INPUT_TOL:
        raise ValidationError("policy rows must be probability pairs")
    return policy


# ---------------------------------------------------------------------------
# rewards and utilities
# ---------------------------------------------------------------------------


def _logistic_pair(x: np.ndarray) -> np.ndarray:
    """(1 / (1 + exp(x)), 1 / (1 + exp(-x))) on a new last (wait, move) axis,
    overflow-safe: one exp per pair, the loser's weight exp(-|x|) to the winner's 1."""
    lose = np.exp(-np.abs(x))
    total = lose + 1.0
    win = 1.0 / total
    lose /= total
    out = np.empty(x.shape + (2,))
    out[..., WAIT] = win
    out[..., MOVE] = lose
    move_wins = x > 0.0
    np.copyto(out[..., WAIT], lose, where=move_wins)
    np.copyto(out[..., MOVE], win, where=move_wins)
    return out


def reward_array(params: MfgParams) -> np.ndarray:
    """Per-agent reward indexed by (state, action): the four-case table, or
    1 / (1 + exp((1 - 2a)(threshold - j) / smoothing)) + reward_offset."""
    counts = np.arange(params.n_agents + 1)
    if params.reward_mode == "table":
        table = params.reward_table
        clear = (counts <= params.threshold)[:, None]
        return np.where(clear, [table.wait_clear, table.move_clear],
                        [table.wait_congested, table.move_congested])
    return _logistic_pair((params.threshold - counts) / params.smoothing) + params.reward_offset


def utility_table(params: MfgParams) -> np.ndarray:
    """`reward_array` minus consistency_weight * |j - threshold|, plus the baseline."""
    distance = np.abs(np.arange(params.n_agents + 1) - params.threshold)
    penalty = params.consistency_weight * distance
    return reward_array(params) - penalty[:, None] + params.preference_baseline


# ---------------------------------------------------------------------------
# binomial transition closure
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _log_binomial_coefficients(n: int) -> np.ndarray:
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1)))))
    out = log_fact[n] - log_fact - log_fact[::-1]
    out.setflags(write=False)
    return out


def _binomial_pmf_rows(n: int, probs: np.ndarray) -> np.ndarray:
    """Row r holds the Binomial(n, probs[r]) pmf; rows are renormalized."""
    probs = np.asarray(probs, dtype=float)
    rows = np.empty((probs.size, n + 1))
    interior = (probs > 0.0) & (probs < 1.0)
    if np.any(interior):
        p = probs[interior][:, None]
        k = np.arange(n + 1, dtype=float)
        log_pmf = k * np.log(p)
        log_pmf += _log_binomial_coefficients(n)
        log_pmf += (n - k) * np.log1p(-p)
        # entries below -746 underflow to 0.0 anyway, and exp is slow on them
        pmf = np.exp(log_pmf, out=np.zeros_like(log_pmf), where=log_pmf > -746.0)
        pmf /= pmf.sum(axis=1, keepdims=True)
        rows[interior] = pmf
    # point masses at p = 0 or 1, skipped when there are none, as in most
    # of the induction's small calls
    if not interior.all():
        rows[~interior] = 0.0
        rows[probs <= 0.0, 0] = 1.0
        rows[probs >= 1.0, n] = 1.0
    return rows


def _peer_pmf_blocks(n: int, probs: np.ndarray):
    """(part, rows) pairs: rows holds the Binomial(n - 1, p) pmf of each
    p in probs[part], built a block of about 2**16 cells at a time so the
    log-pmf temporaries stay small."""
    block = max(1, 2**16 // n)
    for start in range(0, len(probs), block):
        part = slice(start, start + block)
        yield part, _binomial_pmf_rows(n - 1, probs[part])


# Above this many cells a stack's steps multiply only their own rows. Each
# path still wins somewhere after the induction: the selection makes the
# N=1000 table solves whose stacks pass this size (thresholds 350-377) and
# formula-mode solves faster, while N=20 solves would lose 0.5-0.9 ms to
# its gathers. Table-mode stacks at N <= 200 hold at most 12 000 cells.
_SELECT_CELLS = 2**14


def _kernel(policy: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, list]:
    """A whole policy's peer kernels as one stack (rows, index, steps): the
    Binomial(n - 1, p) pmf of state j at step t is rows[steps[t]][index[t, j]].

    rows holds one row per distinct move probability, U in all, in
    increasing order, built in O(U*N) a block at a time so the log-pmf
    temporaries stay about 2**16 cells. Up to _SELECT_CELLS cells every
    steps[t] is slice(None), so each step multiplies the whole stack;
    above it steps[t] holds the sorted ids of the U_t rows step t uses and
    index[t] is local to them, so a sweep costs O(sum_t U_t*N).
    """
    # np.unique(moves, return_inverse=True)'s probabilities and index, from a
    # sort and a search: its argsort takes about twice as long
    moves = policy[:, :, MOVE]
    ordered = np.sort(moves, axis=None)
    first = np.empty(ordered.size, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    probs = ordered[first]
    index = np.searchsorted(probs, moves)
    rows = np.empty((probs.size, n))
    for part, pmf in _peer_pmf_blocks(n, probs):
        rows[part] = pmf
    if rows.size <= _SELECT_CELLS:
        return rows, index, [slice(None)] * len(index)
    # used[t, r]: step t reads row r, set at flat positions, which index
    # faster than (t, row) pairs
    used = np.zeros((len(index), len(rows)), dtype=bool)
    cells = index + np.arange(0, used.size, len(rows))[:, None]
    used.ravel()[cells] = True
    local = np.cumsum(used, axis=1)
    steps = np.split(np.nonzero(used)[1], np.cumsum(local[:, -1])[:-1])
    local -= 1
    return rows, local.ravel()[cells], steps


class _Stack(NamedTuple):
    """A checked policy and the `_kernel` stack built from it. Only this
    module makes one, so no stack is ever paired with another policy."""

    policy: np.ndarray
    kernel: tuple[np.ndarray, np.ndarray, list]


def _stack(policy, params: MfgParams) -> _Stack:
    """`policy` itself when it is a `_Stack`; otherwise the policy, checked
    once, with its own stack."""
    if isinstance(policy, _Stack):
        return policy
    policy = _check_policy(policy, params)
    return _Stack(policy, _kernel(policy, params.n_agents))


def transition_distribution(action: int, move_probability: float, n_agents: int) -> np.ndarray:
    """Law of the next count: own action plus Binomial(n_agents - 1, p).

    The kernel depends on the current state only through the population's
    move probability there, which the caller passes directly.
    """
    _check_count("action", action, WAIT)
    if action > MOVE:
        raise ValidationError(f"action must be {WAIT} (wait) or {MOVE} (move)")
    _check_number("move_probability", move_probability)
    if not 0.0 <= move_probability <= 1.0:
        raise ValidationError("move_probability must lie in [0, 1]")
    _check_count("n_agents", n_agents, 2)
    out = np.zeros(n_agents + 1)
    pmf = _binomial_pmf_rows(n_agents - 1, [move_probability])[0]
    out[action : action + n_agents] = pmf
    return out


def forward_flow(policy, params: MfgParams) -> np.ndarray:
    """Distribution at every t in {0..horizon} under the given policy,
    renormalized at each step. Only `_check_policy` judges the policy's
    pair sums; each step's mass check compares the mass that came out of
    the kernel with the mass that went in, so it measures what the kernel
    lost, not the input's slack."""
    policy, (rows, index, steps) = _stack(policy, params)
    n = params.n_agents
    flow = np.zeros((params.horizon + 1, n + 1))
    flow[0] = initial_distribution_array(params)
    for t in range(params.horizon):
        used = rows[steps[t]]
        out = flow[t + 1]
        wait = np.bincount(index[t], flow[t] * policy[t, :, WAIT], len(used))
        move = np.bincount(index[t], flow[t] * policy[t, :, MOVE], len(used))
        out[:n] += wait @ used
        out[1:] += move @ used
        total = out.sum()
        drift = abs(float(total) - (wait.sum() + move.sum()))
        if not drift <= _DRIFT_TOL:  # a NaN drift fails too
            raise NumericalIntegrityError(f"distribution drifted by {drift:.3e} at step {t}")
        out /= total
    return flow


# ---------------------------------------------------------------------------
# policies and values
# ---------------------------------------------------------------------------


def softmax_policy(values, temperature: float) -> np.ndarray:
    """Boltzmann probabilities over the (wait, move) pair on the last axis,
    max-subtracted for stability; temperature 1 reproduces the plain
    exponential weighting."""
    _check_temperature(temperature)
    try:
        q = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"softmax values must be a numeric array: {exc}") from exc
    if q.shape[-1:] != (2,):
        raise ValidationError(f"softmax values must end in a (wait, move) axis; got shape {q.shape}")
    if not np.isfinite(q).all():
        raise NumericalIntegrityError("softmax input contains non-finite values")
    # -|q_wait - q_move| / temperature is the loser's max-subtracted exponent
    # bit for bit, so this gives the general max-subtracted formula's bits
    return _logistic_pair((q[..., MOVE] - q[..., WAIT]) / temperature)


def uniform_policy(params: MfgParams) -> np.ndarray:
    return np.full((params.horizon, params.n_agents + 1, 2), 0.5)


@dataclass(frozen=True)
class ActionValueTable:
    """q[t, j, a] with a zero terminal layer at t = horizon and v = max_a q."""

    q: np.ndarray
    v: np.ndarray


def _backward(stack: _Stack, params: MfgParams, rules: tuple[str, ...]) -> dict:
    """One backward pass giving {rule: (q, v)} for each backup rule in
    `rules`: "max" backs up greedy values, "policy" the value of following
    the policy itself. Every rule reads the policy's one kernel stack."""
    n, horizon = params.n_agents, params.horizon
    policy, (rows, index, steps) = stack
    utilities = utility_table(params)
    tables = {rule: (np.zeros((horizon + 1, n + 1, 2)), np.zeros((horizon + 1, n + 1)))
              for rule in rules}
    for t in reversed(range(horizon)):
        used = rows[steps[t]]
        for rule, (q, v) in tables.items():
            q[t, :, WAIT] = utilities[:, WAIT] + params.discount * (used @ v[t + 1, :n])[index[t]]
            q[t, :, MOVE] = utilities[:, MOVE] + params.discount * (used @ v[t + 1, 1:])[index[t]]
            if rule == "max":
                v[t] = np.maximum(q[t, :, WAIT], q[t, :, MOVE])
            else:
                v[t] = policy[t][:, WAIT] * q[t, :, WAIT] + policy[t][:, MOVE] * q[t, :, MOVE]
    return tables


def bellman_backward(policy, params: MfgParams) -> ActionValueTable:
    """Backward action-value recursion against the policy-induced kernels.

    q[t, j, a] = U(a, j) + discount * E[v[t+1, j']] where j' = a +
    Binomial(N-1, policy move probability at (t, j)) and v = max over
    actions. A single exact pass; rerunning on identical inputs is
    bit-identical.
    """
    q, v = _backward(_stack(policy, params), params, ("max",))["max"]
    return ActionValueTable(q=q, v=v)


def best_response_gap(policy, params: MfgParams) -> float:
    """How much a single greedy deviator gains over the mixed policy.

    Both values come from one backward pass against the kernels the policy
    induces; the gap is averaged over the model's initial state
    distribution. Nonnegative up to rounding for any policy.
    """
    tables = _backward(_stack(policy, params), params, ("max", "policy"))
    (_, greedy), (_, mixed) = tables.values()
    return float(initial_distribution_array(params) @ (greedy[0] - mixed[0]))


# ---------------------------------------------------------------------------
# equilibrium solver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquilibriumResult:
    """Solver output: the fixed-point policy after the last damped sweep,
    the distribution flow and greedy values consistent with it,
    per-sweep max-norm residuals, the best-response gap certificate, and
    the convergence flag. Non-convergence is reported here, never raised."""

    policy: np.ndarray
    flow: np.ndarray
    values: ActionValueTable
    iterations: int
    residual_history: tuple[tuple[float, float], ...]
    exploitability: float
    converged: bool


# A root is accepted once its logit is within this relative distance of
# solving its equation, far below what the verifying sweep's tol can see.
# Every iteration shrinks the bracket or takes a Newton step inside it, and
# the cap ends the rare search that rounding keeps from passing the test.
_ROOT_TOL = 1e-13
_ROOT_STEPS = 100
# beyond this logit the (wait, move) pair is exactly (1, 0) or (0, 1), as
# exp(-746) underflows, so the bracket stops there and stays finite
_LOGIT_BOUND = 746.0


def _induction_policy(params: MfgParams) -> np.ndarray:
    """The equilibrium policy by backward induction, one scalar equation
    per (step, distinct utility gap).

    The peer kernel at (t, j) depends only on the move probability there,
    and q[t] only on the policy from t on. So going backward from
    t = horizon - 1 with v[t + 1] known, the move logit x at (t, j) solves

        x = (dU(j) + discount * E[dv(K)]) / temperature,

    where dU = U_move - U_wait, dv(k) = v[t + 1, k + 1] - v[t + 1, k] and
    K ~ Binomial(N - 1, sigmoid(x)). States with the same dU share the
    equation, so they are solved once as a group. Each root is found by
    Newton steps in x, started from the same group's root at t + 1 and
    guarded by the bracket (dU + discount * [min dv, max dv]) / temperature,
    which holds every root, cut at +-_LOGIT_BOUND: an iterate that would
    leave the bracket bisects it instead, so the search ends in a bounded
    number of steps however close sigmoid(x) is to 0 or 1. Where an
    equation has several roots, the one returned is the one this guarded
    Newton reaches from the t + 1 root. v[t] = max(q_wait, q_move) then
    backs up as in `_backward`.
    """
    n, horizon = params.n_agents, params.horizon
    discount, temperature = params.discount, params.temperature
    utilities = utility_table(params)
    gaps, group = np.unique(utilities[:, MOVE] - utilities[:, WAIT], return_inverse=True)
    peers = np.arange(n, dtype=float)
    policy = np.empty((horizon, n + 1, 2))
    v = np.zeros(n + 1)
    x = gaps / temperature  # the roots at t = horizon - 1, where dv is 0
    for t in reversed(range(horizon)):
        dv = v[1:] - v[:-1]
        # per group: E[v[t + 1, K]], E[v[t + 1, K + 1]], E[dv(K)], E[K dv(K)]
        columns = np.stack([v[:n], v[1:], dv, peers * dv], axis=1)
        lo = np.clip((gaps + discount * dv.min()) / temperature, -_LOGIT_BOUND, _LOGIT_BOUND)
        hi = np.clip((gaps + discount * dv.max()) / temperature, -_LOGIT_BOUND, _LOGIT_BOUND)
        x = np.clip(x, lo, hi)
        for step in range(_ROOT_STEPS):
            move = _logistic_pair(x)[:, MOVE]
            means = np.empty((move.size, 4))
            for part, pmf in _peer_pmf_blocks(n, move):
                means[part] = pmf @ columns
            if not np.isfinite(means).all():
                raise NumericalIntegrityError("backward induction produced non-finite values")
            gain = means[:, 2]
            excess = x - (gaps + discount * gain) / temperature
            lo = np.where(excess < 0.0, x, lo)
            hi = np.where(excess > 0.0, x, hi)
            scale = _ROOT_TOL * np.maximum(1.0, np.abs(x))
            done = (np.abs(excess) <= scale) | (hi - lo <= scale)
            if step == _ROOT_STEPS - 1 or done.all():
                break
            # d excess / dx, as the pmf's derivative in x is pmf(k) (k - (N-1) p)
            slope = 1.0 - discount / temperature * (means[:, 3] - (n - 1) * move * gain)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = x - excess / slope
            guarded = np.where((lo <= newton) & (newton <= hi), newton, 0.5 * (lo + hi))
            x = np.where(done, x, guarded)
        policy[t] = _logistic_pair(x)[group]
        v = np.maximum(utilities[:, WAIT] + discount * means[group, 0],
                       utilities[:, MOVE] + discount * means[group, 1])
    return policy


def exploitability(result: EquilibriumResult, params: MfgParams) -> float:
    """Best-response gap of an equilibrium result's policy."""
    return best_response_gap(result.policy, params)


def solve_equilibrium(
    params: MfgParams,
    tol: float = 1e-8,
    max_iter: int = 500,
    damping: float = 0.5,
) -> EquilibriumResult:
    """The equilibrium policy by backward induction, verified by damped
    fixed-point sweeps.

    `_induction_policy` solves the fixed point one step and utility gap at
    a time; where an equation has several roots it keeps the one its
    guarded Newton reaches from the t + 1 root. The damped loop starts
    from that policy: each sweep recomputes action values against the
    current policy's kernels, extracts the Boltzmann target, and moves the
    policy a `damping` fraction toward it. From the induction's policy one
    sweep normally finds both residuals at rounding level and stops; if the
    induction were imprecise, the loop would keep sweeping to tol. Each
    policy is checked and its stack built once, as one `_Stack` serving
    its forward flow, the next backward pass and, for the last policy, the
    certificate and final values: `iterations + 1` stacks. The policy
    residual is the max-norm gap between policy and target; the
    distribution residual is the max-norm change of the forward flow
    between sweeps. Convergence requires both below tol; no residual is
    below 0, so tol=0 runs exactly max_iter sweeps.
    """
    _check_number("tol", tol)
    _check_number("damping", damping)
    if tol < 0.0:
        raise ValidationError("tol must be nonnegative")
    if not 0.0 < damping <= 1.0:
        raise ValidationError("damping must lie in (0, 1]")
    _check_count("max_iter", max_iter, 1)

    policy = _induction_policy(params)
    stack = _stack(policy, params)
    flow_prev = forward_flow(stack, params)
    history: list[tuple[float, float]] = []
    for iterations in range(1, max_iter + 1):
        table = bellman_backward(stack, params)
        stack = None  # the updated policy gets its own stack; free this one first
        target = softmax_policy(table.q[: params.horizon], params.temperature)
        policy_residual = float(np.max(np.abs(target - policy)))
        policy = (1.0 - damping) * policy + damping * target
        stack = _stack(policy, params)
        flow = forward_flow(stack, params)
        dist_residual = float(np.max(np.abs(flow - flow_prev)))
        flow_prev = flow
        if not (np.isfinite(policy).all() and np.isfinite(flow).all()):
            raise NumericalIntegrityError("solver produced non-finite values")
        history.append((policy_residual, dist_residual))
        converged = policy_residual < tol and dist_residual < tol
        if converged:
            break

    # the last sweep's table and target go before the certificate's tables
    # are built, and the certificate's before the greedy one is
    del table, target
    gap = best_response_gap(stack, params)
    values = bellman_backward(stack, params)
    return EquilibriumResult(
        policy=policy,
        flow=flow_prev,
        values=values,
        iterations=iterations,
        residual_history=tuple(history),
        exploitability=gap,
        converged=converged,
    )


# ---------------------------------------------------------------------------
# finite-population Monte Carlo check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EmpiricalStats:
    """Finite-population simulation summary.

    state_frequencies[t, j] is the fraction of episodes whose state at t
    was j; deviation is sup_t |empirical mean count - mean-field mean
    count| / N.
    """

    state_frequencies: np.ndarray
    mean_states: np.ndarray
    mf_mean_states: np.ndarray
    deviation: float


# the most trials one Generator.multinomial draw takes
_MAX_EPISODES = int(np.iinfo(np.int64).max)


def check_episodes(episodes) -> None:
    """`episodes` must be an int from 1 to what one multinomial draw takes."""
    _check_count("episodes", episodes, 1)
    if episodes > _MAX_EPISODES:
        raise ValidationError(f"episodes must be at most {_MAX_EPISODES}, got {episodes!r}")


def simulate_population(
    params: MfgParams, policy, episodes: int, seed: int
) -> EmpiricalStats:
    """Simulate N discrete agents sampling actions from the policy.

    Every agent at state j moves with probability p = policy[t, j, MOVE],
    so an episode's next count is Binomial(N, p). Episodes are i.i.d.
    Markov chains, so their visit histogram (episodes per state at step t)
    is one too: given it, the m episodes at the states that share a kernel
    row (the same p) move on as one Multinomial(m, Binomial(N, p)) draw,
    independently of the other rows. Sampling that chain gives the
    histograms the same law as stepping every episode, at a cost of
    O(horizon * rows in use * N) whatever the episode count.

    All draws come from one `default_rng(seed)` stream, in this order: the
    start histogram, Multinomial(episodes, initial law), then at each step
    one multinomial per kernel row in use, in row order. Reruns with the
    same seed are bit-identical; single episodes are never drawn.
    """
    check_episodes(episodes)
    _check_count("seed", seed, 0)
    n = params.n_agents
    stack = _stack(policy, params)
    policy, (rows, index, steps) = stack
    counts = np.arange(n + 1, dtype=float)
    mf_mean_states = forward_flow(stack, params) @ counts
    rng = np.random.default_rng(seed)
    visits = np.zeros((params.horizon + 1, n + 1), dtype=np.int64)
    visits[0] = rng.multinomial(episodes, initial_distribution_array(params))
    for t in range(params.horizon):
        step_rows = rows[steps[t]]
        # each row's move probability, clipped: _check_policy admits entries
        # up to _INPUT_TOL outside [0, 1]
        row_move = np.empty(len(step_rows))
        row_move[index[t]] = np.clip(policy[t, :, MOVE], 0.0, 1.0)
        # int64 sums: float ones round above 2**53 episodes
        per_row = np.zeros(len(step_rows), dtype=np.int64)
        np.add.at(per_row, index[t], visits[t])
        used = np.flatnonzero(per_row)
        # Binomial(N, p): the own move, Bernoulli(p), plus the row's
        # Binomial(N - 1, p) peers
        peers, p = step_rows[used], row_move[used, None]
        law = np.zeros((used.size, n + 1))
        law[:, :n] = (1.0 - p) * peers
        law[:, 1:] += p * peers
        visits[t + 1] = rng.multinomial(per_row[used], law).sum(axis=0)
    frequencies = visits / episodes
    mean_states = frequencies @ counts
    deviation = float(np.max(np.abs(mean_states - mf_mean_states)) / n)
    return EmpiricalStats(
        state_frequencies=frequencies,
        mean_states=mean_states,
        mf_mean_states=mf_mean_states,
        deviation=deviation,
    )
