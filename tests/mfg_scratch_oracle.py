"""Hand-rolled reference solver for the intersection population game.

Written against the model definition before the production module and kept
deliberately separate from it: plain lists, dicts and math only, no numpy,
no package imports. Used to certify the production solver on desk-scale
instances. The one exception imports numpy inside: `softmax_reduce`, the
bit-level reference for the production softmax, must use numpy's exp.

Model summary. State j in {0..N} is last round's mover count. An agent
picks wait (0) or move (1); the other N-1 agents move i.i.d. with the
population policy's move probability at the current state, so the next
count is own action + Binomial(N-1, p). Per-state utility is a reward term
(four-case table keyed on j <= threshold, or a logistic in (j - threshold))
minus a consistency penalty on |j - threshold| plus a baseline. Values are
computed by backward recursion with hard max; the population policy is the
Boltzmann distribution of the action values; the solver damps the policy
toward that target until it stops moving.
"""

import math


def make_params(
    n_agents,
    threshold,
    discount=0.9,
    smoothing=1.0,
    reward_offset=0.0,
    consistency_weight=0.0,
    preference_baseline=0.0,
    temperature=1.0,
    horizon=30,
    reward_mode="table",
    reward_table=(1.0, 0.6, 0.2, 0.0),
    initial_distribution=None,
):
    if initial_distribution is None:
        initial_distribution = [1.0] + [0.0] * n_agents
    return {
        "n_agents": n_agents,
        "threshold": threshold,
        "discount": discount,
        "smoothing": smoothing,
        "reward_offset": reward_offset,
        "consistency_weight": consistency_weight,
        "preference_baseline": preference_baseline,
        "temperature": temperature,
        "horizon": horizon,
        "reward_mode": reward_mode,
        "reward_table": tuple(reward_table),
        "initial_distribution": list(initial_distribution),
    }


def logistic_reward(action, count, threshold, smoothing, offset):
    x = (1 - 2 * action) * (threshold - count) / smoothing
    if x >= 0:
        z = math.exp(-x)
        return z / (1.0 + z) + offset
    return 1.0 / (1.0 + math.exp(x)) + offset


def table_reward(action, count, threshold, table):
    move_clear, wait_clear, wait_congested, move_congested = table
    clear = count <= threshold
    if action == 1:
        return move_clear if clear else move_congested
    return wait_clear if clear else wait_congested


def utility(action, count, p):
    if p["reward_mode"] == "table":
        base = table_reward(action, count, p["threshold"], p["reward_table"])
    else:
        base = logistic_reward(
            action, count, p["threshold"], p["smoothing"], p["reward_offset"]
        )
    penalty = p["consistency_weight"] * abs(count - p["threshold"])
    return base - penalty + p["preference_baseline"]


def binom_row(n, prob):
    if prob <= 0.0:
        return [1.0] + [0.0] * n
    if prob >= 1.0:
        return [0.0] * n + [1.0]
    row = [math.comb(n, k) * prob**k * (1 - prob) ** (n - k) for k in range(n + 1)]
    total = sum(row)
    return [x / total for x in row]


def step_distribution(dist, policy_t, p):
    n = p["n_agents"]
    nxt = [0.0] * (n + 1)
    for j_prev in range(n + 1):
        weight = dist[j_prev]
        if weight == 0.0:
            continue
        row = binom_row(n - 1, policy_t[j_prev][1])
        for action in (0, 1):
            share = weight * policy_t[j_prev][action]
            if share == 0.0:
                continue
            for k, pk in enumerate(row):
                nxt[k + action] += share * pk
    total = sum(nxt)
    return [x / total for x in nxt]


def flow_under(policy, p):
    flow = [list(p["initial_distribution"])]
    for t in range(p["horizon"]):
        flow.append(step_distribution(flow[t], policy[t], p))
    return flow


def backward_values(policy, p):
    """Action values q[t][j][a] under hard-max continuation."""
    n, horizon, disc = p["n_agents"], p["horizon"], p["discount"]
    v = [0.0] * (n + 1)
    q_all = [None] * horizon
    for t in reversed(range(horizon)):
        q_t = [[0.0, 0.0] for _ in range(n + 1)]
        for j in range(n + 1):
            row = binom_row(n - 1, policy[t][j][1])
            for action in (0, 1):
                expect = 0.0
                for k, pk in enumerate(row):
                    expect += pk * v[k + action]
                q_t[j][action] = utility(action, j, p) + disc * expect
        v = [max(q_t[j][0], q_t[j][1]) for j in range(n + 1)]
        q_all[t] = q_t
    return q_all


def softmax_pair(q_wait, q_move, temperature):
    top = max(q_wait, q_move)
    e0 = math.exp((q_wait - top) / temperature)
    e1 = math.exp((q_move - top) / temperature)
    z = e0 + e1
    return [e0 / z, e1 / z]


def solve(p, n_iterations, damping=0.5):
    """Run exactly n_iterations damped fixed-point sweeps; return policy, flow."""
    n, horizon = p["n_agents"], p["horizon"]
    policy = [[[0.5, 0.5] for _ in range(n + 1)] for _ in range(horizon)]
    for _ in range(n_iterations):
        q = backward_values(policy, p)
        for t in range(horizon):
            for j in range(n + 1):
                target = softmax_pair(q[t][j][0], q[t][j][1], p["temperature"])
                for action in (0, 1):
                    policy[t][j][action] = (1 - damping) * policy[t][j][
                        action
                    ] + damping * target[action]
    return policy, flow_under(policy, p)


def best_response_value(policy, p):
    """Greedy value at t=0 against the kernels the policy induces."""
    n, horizon, disc = p["n_agents"], p["horizon"], p["discount"]
    v = [0.0] * (n + 1)
    for t in reversed(range(horizon)):
        new_v = [0.0] * (n + 1)
        for j in range(n + 1):
            row = binom_row(n - 1, policy[t][j][1])
            best = None
            for action in (0, 1):
                expect = 0.0
                for k, pk in enumerate(row):
                    expect += pk * v[k + action]
                value = utility(action, j, p) + disc * expect
                best = value if best is None else max(best, value)
            new_v[j] = best
        v = new_v
    return v


def policy_value(policy, p):
    """Value at t=0 of following the mixed policy itself."""
    n, horizon, disc = p["n_agents"], p["horizon"], p["discount"]
    v = [0.0] * (n + 1)
    for t in reversed(range(horizon)):
        new_v = [0.0] * (n + 1)
        for j in range(n + 1):
            row = binom_row(n - 1, policy[t][j][1])
            acc = 0.0
            for action in (0, 1):
                expect = 0.0
                for k, pk in enumerate(row):
                    expect += pk * v[k + action]
                acc += policy[t][j][action] * (utility(action, j, p) + disc * expect)
            new_v[j] = acc
        v = new_v
    return v


def exploitability(policy, initial, p):
    v_br = best_response_value(policy, p)
    v_pi = policy_value(policy, p)
    return sum(initial[j] * (v_br[j] - v_pi[j]) for j in range(p["n_agents"] + 1))


def softmax_reduce(values, temperature):
    """Boltzmann probabilities over the last axis by numpy reductions, the
    general-axis formula the production pair softmax must match bit for bit.
    """
    import numpy as np

    q = np.asarray(values, dtype=float)
    z = (q - q.max(axis=-1, keepdims=True)) / temperature
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)
