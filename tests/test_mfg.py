import dataclasses
import inspect
import itertools
import math
import re
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import mfg_scratch_oracle as oracle
import mfg_stagewise_oracle as stagewise
from coopdyn import mfg
from coopdyn.envs import IntersectionConfig, intersection_episode
from coopdyn.errors import NumericalIntegrityError, ValidationError
from coopdyn.mfg import (
    MOVE,
    WAIT,
    EquilibriumResult,
    MfgParams,
    RewardTable,
    bellman_backward,
    best_response_gap,
    default_params,
    exploitability,
    forward_flow,
    initial_distribution_array,
    simulate_population,
    softmax_policy,
    solve_equilibrium,
    transition_distribution,
    reward_array,
    uniform_policy,
    utility_table,
)


def enumerate_transition(n_agents, action, p_move):
    """Oracle: exhaust all 2^(N-1) peer-action tuples."""
    probs = [0.0] * (n_agents + 1)
    for peers in itertools.product((0, 1), repeat=n_agents - 1):
        weight = 1.0
        for bit in peers:
            weight *= p_move if bit else (1.0 - p_move)
        probs[action + sum(peers)] += weight
    return np.array(probs)


def small_params(**overrides):
    base = dict(n_agents=4, threshold=2, discount=0.9, temperature=0.5, horizon=3)
    base.update(overrides)
    return MfgParams(**base)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


def test_the_demo_instance_takes_the_other_fields_from_mfg_params():
    assert default_params() == MfgParams(n_agents=20, threshold=8, discount=0.9,
                                         temperature=0.2, horizon=30)


@pytest.mark.parametrize(
    "call",
    [
        lambda: simulate_population(small_params(), uniform_policy(small_params()),
                                    episodes=True, seed=0),
        lambda: simulate_population(small_params(), uniform_policy(small_params()),
                                    episodes=2, seed=False),
        lambda: solve_equilibrium(small_params(), max_iter=True),
        lambda: MfgParams(n_agents=4, threshold=2, horizon=True),
        lambda: MfgParams(n_agents=4, threshold=True),
        lambda: transition_distribution(WAIT, 0.5, True),
    ],
    ids=["episodes", "seed", "max_iter", "horizon", "threshold", "n_agents"],
)
def test_bools_are_not_integers(call):
    with pytest.raises(ValidationError, match="must be an integer"):
        call()


@pytest.mark.parametrize(
    "option, value, match",
    [
        ("tol", math.nan, "tol is non-finite"),
        ("tol", math.inf, "tol is non-finite"),
        ("tol", True, "tol must be a number"),
        ("tol", "x", "tol must be a number"),
        ("tol", -1e-9, "tol must be nonnegative"),
        ("damping", True, "damping must be a number"),
        ("damping", "x", "damping must be a number"),
        ("damping", 0.0, r"^damping must lie in \(0, 1\]$"),
        ("damping", 1.5, r"^damping must lie in \(0, 1\]$"),
    ],
    ids=["tol-nan", "tol-inf", "tol-bool", "tol-text", "tol-negative", "damping-bool",
         "damping-text", "damping-zero", "damping-above-one"],
)
def test_solver_tol_and_damping_must_be_finite_numbers(option, value, match):
    with pytest.raises(ValidationError, match=match):
        solve_equilibrium(small_params(), max_iter=2, **{option: value})


def test_params_validation():
    with pytest.raises(ValidationError):
        MfgParams(n_agents=4, threshold=0)
    with pytest.raises(ValidationError):
        MfgParams(n_agents=4, threshold=4)
    with pytest.raises(ValidationError):
        MfgParams(n_agents=4, threshold=2, discount=1.0)
    with pytest.raises(ValidationError):
        MfgParams(n_agents=4, threshold=2, temperature=0.0)
    with pytest.raises(ValidationError):
        MfgParams(n_agents=4, threshold=2, smoothing=0.0)
    with pytest.raises(ValidationError):
        MfgParams(n_agents=4, threshold=2, horizon=0)
    with pytest.raises(ValidationError):
        MfgParams(n_agents=4, threshold=2, reward_mode="other")


def test_a_negative_consistency_weight_is_refused():
    with pytest.raises(ValidationError, match="^consistency_weight must be nonnegative$"):
        small_params(consistency_weight=-0.1)


@pytest.mark.parametrize("temperature", [1 / sys.float_info.max, 3e-309, 1e-309])
@pytest.mark.parametrize("mode", ["table", "formula"])
def test_a_temperature_whose_reciprocal_overflows_is_refused(mode, temperature):
    # below 1 / float max, about 5.56e-309, dividing by the temperature overflows
    message = re.escape(f"temperature must be a positive number with a finite reciprocal, "
                        f"got {temperature!r}")
    with pytest.raises(ValidationError, match=f"^{message}$"):
        MfgParams(n_agents=20, threshold=8, temperature=temperature, reward_mode=mode)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        softmax_policy([0.0, 1.0], temperature)


@pytest.mark.parametrize("mode", ["table", "formula"])
def test_the_smallest_temperature_decade_that_is_accepted_solves_without_warnings(mode):
    # the floor is exact: the next float up is accepted
    softmax_policy([0.0, 1.0], math.nextafter(1 / sys.float_info.max, 1.0))
    params = MfgParams(n_agents=20, threshold=8, temperature=1e-308, reward_mode=mode)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = solve_equilibrium(params)
    assert result.converged and result.iterations == 1


_LIMIT = np.iinfo(np.intp).max


@pytest.mark.parametrize(
    "n_agents, horizon",
    [(10**17, 30), (_LIMIT // (16 * 31), 30), (20, _LIMIT // (16 * 21))],
    ids=["n_agents", "n_agents-edge", "horizon-edge"],
)
def test_arrays_beyond_numpy_size_limit_are_rejected(n_agents, horizon):
    with pytest.raises(ValidationError, match="^n_agents, horizon: .* numpy's size limit"):
        MfgParams(n_agents=n_agents, threshold=8, horizon=horizon)


def test_the_largest_array_numpy_can_describe_is_accepted():
    # nothing is allocated at construction
    n_agents = _LIMIT // (16 * 31) - 1
    assert MfgParams(n_agents=n_agents, threshold=8, horizon=30).n_agents == n_agents


@pytest.mark.parametrize(
    "key, value, reader",
    [
        ("smoothing", 2.0, "formula"),
        ("reward_offset", 0.25, "formula"),
        # the converse: formula mode rejects the table it would ignore
        ("reward_table", RewardTable(2.0, 0.6, 0.2, 0.0), "table"),
    ],
    ids=["smoothing-2.0", "reward_offset-0.25", "reward_table-formula"],
)
def test_table_mode_rejects_formula_only_parameters(key, value, reader):
    other = "table" if reader == "formula" else "formula"
    with pytest.raises(ValidationError, match=f"{key}: used only when reward_mode is '{reader}'"):
        MfgParams(n_agents=4, threshold=2, reward_mode=other, **{key: value})
    params = MfgParams(n_agents=4, threshold=2, reward_mode=reader, **{key: value})
    assert getattr(params, key) == value


def test_reward_table_ordering():
    with pytest.raises(ValidationError):
        RewardTable(0.5, 0.6, 0.2, 0.0)  # move_clear must dominate
    with pytest.raises(ValidationError):
        RewardTable(1.0, 0.6, 0.2, 0.2)  # wait_congested must beat move_congested
    RewardTable(1.0, 0.6, 0.6, 0.0)  # middle tie is allowed


def test_initial_distribution_defaults_to_everyone_waiting():
    params = small_params()
    dist = initial_distribution_array(params)
    assert dist[0] == 1.0
    assert dist.sum() == 1.0


def with_nan(array, index):
    out = np.array(array, dtype=float)
    out[index] = np.nan
    return out


NAN_PARAMS = small_params()
GOOD_POLICY = uniform_policy(NAN_PARAMS)
NAN_POLICY = with_nan(GOOD_POLICY, (1, 2, MOVE))


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda: bellman_backward(NAN_POLICY, NAN_PARAMS), "non-finite",
                     id="bellman_backward"),
        pytest.param(lambda: best_response_gap(NAN_POLICY, NAN_PARAMS), "non-finite",
                     id="best_response_gap"),
        pytest.param(lambda: forward_flow(NAN_POLICY, NAN_PARAMS), "non-finite",
                     id="forward_flow"),
        pytest.param(
            lambda: simulate_population(NAN_PARAMS, NAN_POLICY, episodes=2, seed=0),
            "non-finite",
            id="simulate_population",
        ),
        pytest.param(
            lambda: small_params(initial_distribution=(np.nan, 1.0, 0.0, 0.0, 0.0)),
            "non-finite",
            id="initial_distribution",
        ),
        pytest.param(lambda: small_params(consistency_weight=np.nan),
                     "consistency_weight is non-finite", id="consistency_weight"),
        pytest.param(lambda: small_params(preference_baseline=np.inf),
                     "preference_baseline is non-finite", id="preference_baseline"),
        pytest.param(lambda: small_params(reward_mode="formula", reward_offset=np.nan),
                     "reward_offset is non-finite", id="reward_offset"),
        pytest.param(lambda: small_params(temperature=np.inf),
                     "temperature is non-finite", id="temperature"),
        pytest.param(lambda: small_params(discount=np.nan),
                     "discount is non-finite", id="discount"),
        pytest.param(lambda: RewardTable(move_clear=np.inf),
                     "move_clear is non-finite", id="reward_table-move_clear"),
        pytest.param(lambda: RewardTable(wait_congested=np.nan),
                     "wait_congested is non-finite", id="reward_table-wait_congested"),
    ],
)
def test_non_finite_inputs_are_rejected(call, match):
    with pytest.raises(ValidationError, match=match):
        call()


PARAMS_FLOAT_FIELDS = ("discount", "smoothing", "reward_offset", "consistency_weight",
                       "preference_baseline", "temperature")
TABLE_FLOAT_FIELDS = ("move_clear", "wait_clear", "wait_congested", "move_congested")


def test_the_float_field_lists_name_every_float_field():
    float_fields = [f.name for f in dataclasses.fields(MfgParams) if f.type == "float"]
    assert tuple(float_fields) == PARAMS_FLOAT_FIELDS
    assert tuple(f.name for f in dataclasses.fields(RewardTable)) == TABLE_FLOAT_FIELDS


@pytest.mark.parametrize("value", [None, "0.9", True], ids=["None", "text", "bool"])
@pytest.mark.parametrize(
    "make, key",
    [(lambda **kw: small_params(reward_mode="formula", **kw), key) for key in PARAMS_FLOAT_FIELDS]
    + [(RewardTable, key) for key in TABLE_FLOAT_FIELDS],
    ids=[*PARAMS_FLOAT_FIELDS, *(f"reward_table-{key}" for key in TABLE_FLOAT_FIELDS)],
)
def test_float_fields_that_are_not_numbers_are_rejected_by_name(make, key, value):
    with pytest.raises(ValidationError, match=f"^{key} must be a number"):
        make(**{key: value})


NEGATIVE_POLICY = np.array(GOOD_POLICY)
NEGATIVE_POLICY[:, :, WAIT] = -0.5
NEGATIVE_POLICY[:, :, MOVE] = 1.5


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: bellman_backward(NEGATIVE_POLICY, NAN_PARAMS), id="bellman"),
        pytest.param(lambda: best_response_gap(NEGATIVE_POLICY, NAN_PARAMS), id="gap"),
        pytest.param(lambda: forward_flow(NEGATIVE_POLICY, NAN_PARAMS), id="forward_flow"),
        pytest.param(
            lambda: simulate_population(NAN_PARAMS, NEGATIVE_POLICY, episodes=2, seed=0),
            id="simulate_population",
        ),
    ],
)
def test_policies_that_are_not_probabilities_are_rejected_before_any_work(
    call, monkeypatch
):
    work = []

    def recording(label, fn):
        def wrapped(*args):
            work.append(label)
            return fn(*args)

        return wrapped

    monkeypatch.setattr(mfg, "_binomial_pmf_rows", recording("kernel", mfg._binomial_pmf_rows))
    monkeypatch.setattr(np.random, "default_rng", recording("episode", np.random.default_rng))
    with pytest.raises(ValidationError, match="probability pairs"):
        call()
    assert work == []


ONE_STEP = MfgParams(n_agents=2, threshold=1, horizon=1)


def policy_mode_episode(policy):
    config = IntersectionConfig(n_agents=2, threshold=1, rounds=1, assignment="policy",
                                params=ONE_STEP)
    return intersection_episode(config, policy)


@pytest.mark.parametrize("policy", [[[[0.5, 0.5], [1, 0]], [[1]]], "abc"],
                         ids=["ragged", "text"])
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda policy: forward_flow(policy, ONE_STEP), id="forward_flow"),
        pytest.param(lambda policy: bellman_backward(policy, ONE_STEP), id="bellman_backward"),
        pytest.param(lambda policy: best_response_gap(policy, ONE_STEP), id="best_response_gap"),
        pytest.param(lambda policy: simulate_population(ONE_STEP, policy, episodes=1, seed=0),
                     id="simulate_population"),
        pytest.param(policy_mode_episode, id="intersection_episode"),
    ],
)
def test_policies_that_are_not_numeric_arrays_are_validation_errors(call, policy):
    with pytest.raises(ValidationError, match="policy must be a numeric array"):
        call(policy)


@pytest.mark.parametrize("law", [("a", 0, 0), [[1.0], [0.0, 0.0], 0.0]], ids=["text", "ragged"])
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda law: MfgParams(n_agents=2, threshold=1, initial_distribution=law),
                     id="MfgParams"),
    ],
)
def test_initial_laws_that_are_not_numeric_arrays_are_validation_errors(call, law):
    with pytest.raises(ValidationError, match="must be a numeric array"):
        call(law)


# ---------------------------------------------------------------------------
# rewards and utilities
# ---------------------------------------------------------------------------


def test_logistic_reward_at_the_threshold_is_half():
    for kappa in (0.3, 1.0, 7.0):
        params = MfgParams(
            n_agents=20, threshold=10, smoothing=kappa, reward_offset=0.25,
            reward_mode="formula",
        )
        assert reward_array(params)[10, MOVE] == pytest.approx(0.75)


def test_logistic_reward_orientation():
    # Moving while few moved last round (j far below the threshold) pays
    # nearly the full logistic unit; waiting there pays almost nothing.
    # Direct evaluation: 1/(1 + exp((1-2a)(i-j)/kappa)) at i=10, j=0, kappa=1.
    params = MfgParams(n_agents=20, threshold=10, reward_mode="formula")
    rewards = reward_array(params)
    move_value = 1.0 / (1.0 + math.exp(-10.0))
    wait_value = 1.0 / (1.0 + math.exp(10.0))
    assert rewards[0, MOVE] == pytest.approx(move_value, abs=1e-15)
    assert rewards[0, WAIT] == pytest.approx(wait_value, abs=1e-15)
    assert rewards[0, WAIT] == pytest.approx(4.5398e-05, abs=1e-9)
    # and the scratch-oracle agrees
    assert rewards[0, MOVE] == pytest.approx(
        oracle.logistic_reward(1, 0, 10, 1.0, 0.0), abs=1e-15
    )


def _elementwise_logistic_reward(params):
    """Formula-mode rewards from an elementwise 1 / (1 + exp(x)): the form
    the pair form replaced, kept as its bit-for-bit reference."""
    counts = np.arange(params.n_agents + 1)
    x = (1 - 2 * np.array([WAIT, MOVE])) * (params.threshold - counts)[:, None] / params.smoothing
    shrink = np.exp(-np.abs(x))
    return np.where(x >= 0.0, shrink / (1.0 + shrink), 1.0 / (1.0 + shrink)) + params.reward_offset


@pytest.mark.parametrize("n_agents, threshold", [(2, 1), (20, 8), (200, 90), (1000, 400)])
def test_formula_rewards_are_bit_identical_to_the_elementwise_logistic(n_agents, threshold):
    for smoothing, offset in itertools.product((1e-9, 0.3, 1.0, 7.0, 1e6), (0.0, -0.0, -0.25, 3)):
        params = MfgParams(n_agents=n_agents, threshold=threshold, smoothing=smoothing,
                           reward_offset=offset, reward_mode="formula")
        got, want = reward_array(params), _elementwise_logistic_reward(params)
        # array_equal cannot tell -0.0 from 0.0; the bits can
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (smoothing, offset)


def test_table_reward_cases():
    params = MfgParams(n_agents=20, threshold=10)
    table = params.reward_table
    rewards = reward_array(params)
    assert rewards[3, MOVE] == table.move_clear
    assert rewards[3, WAIT] == table.wait_clear
    assert rewards[11, WAIT] == table.wait_congested == 0.2
    assert rewards[11, MOVE] == table.move_congested


def test_utility_combines_reward_penalty_and_baseline():
    params = MfgParams(n_agents=20, threshold=10, consistency_weight=3.0)
    assert utility_table(params)[10, MOVE] == pytest.approx(1.0)
    params = MfgParams(n_agents=20, threshold=10, consistency_weight=0.1)
    assert utility_table(params)[14, WAIT] == pytest.approx(0.2 - 0.4)
    params = MfgParams(n_agents=20, threshold=10)
    assert np.array_equal(utility_table(params), reward_array(params))


def test_utility_table_matches_pointwise_calls():
    formula_only = {"smoothing": 2.5, "reward_offset": 0.25}
    for mode, extra in (("table", {}), ("formula", formula_only)):
        shared = dict(reward_mode=mode, consistency_weight=0.3, preference_baseline=0.1,
                      **extra)
        params = MfgParams(n_agents=30, threshold=11, **shared)
        reference = oracle.make_params(30, 11, **shared)
        loop = [[oracle.utility(a, j, reference) for a in (WAIT, MOVE)] for j in range(31)]
        assert np.array_equal(utility_table(params), np.array(loop))


# ---------------------------------------------------------------------------
# transition kernel
# ---------------------------------------------------------------------------


def test_transition_small_exact():
    dist = transition_distribution(MOVE, 0.5, 3)
    assert dist == pytest.approx([0.0, 0.25, 0.5, 0.25])


def test_transition_degenerate():
    dist = transition_distribution(WAIT, 0.0, 6)
    assert dist[0] == 1.0
    dist = transition_distribution(MOVE, 1.0, 6)
    assert dist[6] == 1.0


@pytest.mark.parametrize(
    "action, move_probability, message",
    [
        (True, 0.5, "action must be an integer"),
        (1.0, 0.5, "action must be an integer"),
        (-1, 0.5, "action must be an integer"),
        (2, 0.5, "action must be 0 \\(wait\\) or 1 \\(move\\)"),
        (WAIT, True, "move_probability must be a number"),
        (WAIT, "0.5", "move_probability must be a number"),
        (WAIT, np.nan, "move_probability is non-finite"),
        (WAIT, 1.5, "move_probability must lie in"),
    ],
    ids=["bool-action", "float-action", "negative-action", "action-2", "bool-probability",
         "text-probability", "nan-probability", "probability-above-one"],
)
def test_transition_rejects_actions_and_probabilities_of_the_wrong_type(
    action, move_probability, message
):
    with pytest.raises(ValidationError, match=message):
        transition_distribution(action, move_probability, 4)


@pytest.mark.parametrize("n_agents", range(2, 13))
def test_transition_matches_enumeration(n_agents):
    for action in (WAIT, MOVE):
        for p_move in (0.0, 0.3, 0.5, 0.75, 1.0):
            got = transition_distribution(action, p_move, n_agents)
            want = enumerate_transition(n_agents, action, p_move)
            assert np.max(np.abs(got - want)) < 1e-12
            assert abs(got.sum() - 1.0) < 1e-12


@pytest.mark.parametrize("n", [5, 999])
def test_kernel_rows_skip_only_exp_that_underflows(n):
    probs = np.array([1e-300, 1e-3, 0.5, 1 - 1e-16])
    k = np.arange(n + 1)
    log_pmf = mfg._log_binomial_coefficients(n) + k * np.log(probs[:, None]) + (
        n - k
    ) * np.log1p(-probs[:, None])
    pmf = np.exp(log_pmf)
    assert np.array_equal(mfg._binomial_pmf_rows(n, probs), pmf / pmf.sum(axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# distribution evolution
# ---------------------------------------------------------------------------


def step(dist, policy_slice, params):
    """One forward step from `dist`: `forward_flow` over a one-step horizon."""
    one_step = dataclasses.replace(params, horizon=1, initial_distribution=tuple(dist))
    return forward_flow(np.asarray(policy_slice)[None], one_step)[1]


def test_evolution_everyone_waits_or_moves():
    params = small_params()
    n = params.n_agents
    dist = np.full(n + 1, 1.0 / (n + 1))
    stay = np.zeros((n + 1, 2))
    stay[:, WAIT] = 1.0
    out = step(dist, stay, params)
    assert out[0] == pytest.approx(1.0)
    go = np.zeros((n + 1, 2))
    go[:, MOVE] = 1.0
    out = step(dist, go, params)
    assert out[n] == pytest.approx(1.0)


def test_evolution_matches_enumeration():
    params = small_params()
    n = params.n_agents
    dist = np.full(n + 1, 1.0 / (n + 1))
    policy = np.full((n + 1, 2), 0.5)
    got = step(dist, policy, params)
    want = np.zeros(n + 1)
    for j_prev in range(n + 1):
        for action in (WAIT, MOVE):
            want += dist[j_prev] * 0.5 * enumerate_transition(n, action, 0.5)
    assert np.max(np.abs(got - want)) < 1e-12


def test_evolution_output_is_normalized():
    params = small_params(n_agents=9, threshold=4)
    rng = np.random.default_rng(3)
    dist = rng.random(10)
    dist /= dist.sum()
    moves = rng.random(10)
    policy = np.stack([1 - moves, moves], axis=1)
    out = step(dist, policy, params)
    assert abs(out.sum() - 1.0) < 1e-12


def dense_backward(policy, params):
    """Reference backward pass over the unfactored (N+1) x N kernel."""
    n, horizon = params.n_agents, params.horizon
    utilities = utility_table(params)
    tables = {}
    for rule in ("max", "policy"):
        q = np.zeros((horizon + 1, n + 1, 2))
        v = np.zeros((horizon + 1, n + 1))
        for t in reversed(range(horizon)):
            dense = mfg._binomial_pmf_rows(n - 1, policy[t][:, MOVE])
            q[t, :, WAIT] = utilities[:, WAIT] + params.discount * (dense @ v[t + 1, :n])
            q[t, :, MOVE] = utilities[:, MOVE] + params.discount * (dense @ v[t + 1, 1:])
            if rule == "max":
                v[t] = q[t].max(axis=1)
            else:
                v[t] = (policy[t] * q[t]).sum(axis=1)
        tables[rule] = (q, v)
    return tables


def policy_with_distinct_moves(n, horizon, distinct, rng):
    """A policy whose every slice has exactly `distinct` move probabilities,
    including the point masses 0 and 1 once there are at least three."""
    levels = rng.random(distinct)
    if distinct >= 3:
        levels[:2] = (0.0, 1.0)
    moves = np.empty((horizon, n + 1))
    for t in range(horizon):
        moves[t] = levels[rng.permutation(np.arange(n + 1) % distinct)]
    return np.stack([1.0 - moves, moves], axis=2)


@pytest.mark.parametrize("n_agents", [2, 20, 257])
@pytest.mark.parametrize("distinct", ["one", "few", "all"])
def test_factored_kernel_matches_dense_reference(n_agents, distinct):
    params = MfgParams(n_agents=n_agents, threshold=n_agents // 2, horizon=4,
                       consistency_weight=0.01)
    count = {"one": 1, "few": min(3, n_agents + 1), "all": n_agents + 1}[distinct]
    rng = np.random.default_rng(n_agents)
    policy = policy_with_distinct_moves(n_agents, params.horizon, count, rng)
    assert all(np.unique(policy[t][:, MOVE]).size == count for t in range(params.horizon))
    factored = mfg._backward(mfg._stack(policy, params), params, ("max", "policy"))
    for rule, (q, v) in dense_backward(policy, params).items():
        assert np.max(np.abs(factored[rule][0] - q)) < 1e-13
        assert np.max(np.abs(factored[rule][1] - v)) < 1e-13
    n = n_agents
    dist = rng.dirichlet(np.ones(n + 1))
    flow = forward_flow(policy, dataclasses.replace(params, initial_distribution=tuple(dist)))
    want = dist / dist.sum()
    assert np.array_equal(flow[0], want)
    for t in range(params.horizon):
        dense = mfg._binomial_pmf_rows(n - 1, policy[t][:, MOVE])
        after = np.zeros(n + 1)
        after[:n] += (want * policy[t][:, WAIT]) @ dense
        after[1:] += (want * policy[t][:, MOVE]) @ dense
        want = after / after.sum()
        assert np.max(np.abs(flow[t + 1] - want)) < 1e-13


def values_of(policy, params):
    """Flow, q, v and gap of a policy or of a `_Stack`."""
    table = bellman_backward(policy, params)
    return forward_flow(policy, params), table.q, table.v, best_response_gap(policy, params)


@pytest.mark.parametrize("n_agents", [2, 257])
@pytest.mark.parametrize("distinct", ["one", "few", "all"])
def test_kernel_stack_changes_no_values(n_agents, distinct):
    # at N=257 an all-distinct policy has 1032 move probabilities, which the
    # stack builds in five blocks
    params = MfgParams(n_agents=n_agents, threshold=n_agents // 2, horizon=4,
                       consistency_weight=0.01)
    count = {"one": 1, "few": min(3, n_agents + 1), "all": n_agents + 1}[distinct]
    policy = policy_with_distinct_moves(n_agents, params.horizon, count,
                                        np.random.default_rng(n_agents))
    rows, index, steps = mfg._kernel(policy, n_agents)
    assert index.shape == policy.shape[:2]
    assert len(rows) == np.unique(policy[:, :, MOVE]).size
    for t in range(params.horizon):
        want = mfg._binomial_pmf_rows(n_agents - 1, policy[t][:, MOVE])
        assert np.max(np.abs(rows[steps[t]][index[t]] - want)) <= 1e-15
    for shared, own in zip(values_of(mfg._stack(policy, params), params), values_of(policy, params)):
        assert np.array_equal(shared, own)


@pytest.mark.parametrize("call", [forward_flow, bellman_backward, best_response_gap],
                         ids=lambda call: call.__name__)
def test_the_evaluators_take_a_policy_and_params_only(call):
    # the kernels always come from the policy being evaluated
    assert list(inspect.signature(call).parameters) == ["policy", "params"]
    params = small_params()
    policy = uniform_policy(params)
    with pytest.raises(TypeError, match="kernel"):
        call(policy, params, kernel=mfg._kernel(policy, params.n_agents))


def test_a_stack_evaluates_the_policy_it_was_built_from():
    # the stack carries its own policy, so the uniform policy's stack gives
    # the uniform policy's values bit for bit, never the equilibrium's
    params = default_params()
    uniform = uniform_policy(params)
    stack = mfg._stack(uniform, params)
    assert stack.policy is uniform
    shared = values_of(stack, params)
    for got, want in zip(shared, values_of(uniform, params)):
        assert np.array_equal(got, want)
    solved = values_of(solve_equilibrium(params).policy, params)
    assert not np.array_equal(shared[0], solved[0]) and shared[3] != solved[3]


def test_a_solve_checks_each_policy_once(monkeypatch):
    checked = []
    check = mfg._check_policy

    def counting_check(policy, params):
        checked.append(policy)
        return check(policy, params)

    monkeypatch.setattr(mfg, "_check_policy", counting_check)
    result = solve_equilibrium(default_params())
    assert result.iterations == 1 and len(checked) == result.iterations + 1


# _SELECT_CELLS values that force each stack path on any input
STACK_PATHS = {"whole": 2**62, "per-step": 0}


def unique_stack(policy, n):
    """Reference stack: np.unique's sorted probabilities and inverse, rows
    built in the same blocks as mfg._kernel."""
    probs, index = np.unique(policy[:, :, MOVE], return_inverse=True)
    block = max(1, 2**16 // n)
    rows = np.concatenate([mfg._binomial_pmf_rows(n - 1, probs[start : start + block])
                           for start in range(0, probs.size, block)])
    return rows, index.reshape(policy.shape[:2])


def solved_policy(reward_mode):
    params = MfgParams(n_agents=40, threshold=16, temperature=0.2, horizon=6,
                       reward_mode=reward_mode, consistency_weight=0.01)
    return params, solve_equilibrium(params).policy


def stack_policy(kind):
    """(params, policy) whose move probabilities take one value, a few, all
    distinct ones, both signs of zero, or come from a table- or
    formula-mode solve; every kind but "all" repeats values across steps."""
    if kind in ("table", "formula"):
        return solved_policy(kind)
    n, horizon = 40, 5
    params = MfgParams(n_agents=n, threshold=16, horizon=horizon, consistency_weight=0.01)
    rng = np.random.default_rng(5)
    if kind == "signed-zero":
        moves = rng.choice([-0.0, 0.0, 0.3, 1.0], size=(horizon, n + 1))
        return params, np.stack([1.0 - moves, moves], axis=2)
    if kind == "all":
        moves = rng.random((horizon, n + 1))
        return params, np.stack([1.0 - moves, moves], axis=2)
    count = {"one": 1, "few": 3}[kind]
    return params, policy_with_distinct_moves(n, horizon, count, rng)


STACK_KINDS = ["one", "few", "all", "signed-zero", "table", "formula"]


@pytest.mark.parametrize("path", STACK_PATHS)
@pytest.mark.parametrize("kind", STACK_KINDS)
def test_sorted_stack_is_the_unique_stack_bit_for_bit(monkeypatch, path, kind):
    monkeypatch.setattr(mfg, "_SELECT_CELLS", STACK_PATHS[path])
    params, policy = stack_policy(kind)
    rows, index, steps = mfg._kernel(policy, params.n_agents)
    want_rows, want_index = unique_stack(policy, params.n_agents)
    assert np.array_equal(rows, want_rows)
    ids = np.arange(len(rows))
    for t in range(params.horizon):
        assert np.array_equal(ids[steps[t]][index[t]], want_index[t])
    if path == "whole":
        assert np.array_equal(index, want_index)
        assert all(step == slice(None) for step in steps)


@pytest.mark.parametrize("kind", STACK_KINDS)
def test_per_step_rows_are_each_steps_own_kernel(monkeypatch, kind):
    monkeypatch.setattr(mfg, "_SELECT_CELLS", STACK_PATHS["per-step"])
    params, policy = stack_policy(kind)
    n = params.n_agents
    rows, index, steps = mfg._kernel(policy, n)
    assert len(rows) == np.unique(policy[:, :, MOVE]).size
    for t in range(params.horizon):
        assert np.all(np.diff(steps[t]) > 0)
        assert len(rows[steps[t]]) == np.unique(policy[t, :, MOVE]).size
        dense = mfg._binomial_pmf_rows(n - 1, policy[t, :, MOVE])
        assert np.max(np.abs(rows[steps[t]][index[t]] - dense)) <= 1e-15


def on_path(monkeypatch, path, call, *args):
    monkeypatch.setattr(mfg, "_SELECT_CELLS", STACK_PATHS[path])
    return call(*args)


@pytest.mark.parametrize("kind", STACK_KINDS)
def test_both_stack_paths_give_the_same_flow_values_and_gap(monkeypatch, kind):
    params, policy = stack_policy(kind)
    flows, tables, gaps = [], [], []
    for path in STACK_PATHS:
        flows.append(on_path(monkeypatch, path, forward_flow, policy, params))
        tables.append(on_path(monkeypatch, path, bellman_backward, policy, params))
        gaps.append(on_path(monkeypatch, path, best_response_gap, policy, params))
    assert np.max(np.abs(flows[0] - flows[1])) <= 1e-15
    np.testing.assert_array_max_ulp(tables[0].q, tables[1].q, maxulp=4)
    np.testing.assert_array_max_ulp(tables[0].v, tables[1].v, maxulp=4)
    assert gaps[0] == pytest.approx(gaps[1], rel=1e-14, abs=1e-14)


@pytest.mark.parametrize("kind", STACK_KINDS)
def test_both_stack_paths_draw_the_same_population(monkeypatch, kind):
    params, policy = stack_policy(kind)
    stats = [on_path(monkeypatch, path, simulate_population, params, policy, 500, 3)
             for path in STACK_PATHS]
    assert np.array_equal(stats[0].state_frequencies, stats[1].state_frequencies)


@pytest.mark.parametrize(
    "params",
    [MfgParams(n_agents=20, threshold=t, temperature=0.2, horizon=30) for t in (4, 8, 13)]
    + [MfgParams(n_agents=200, threshold=t, temperature=0.2, horizon=30) for t in (70, 80, 90)],
    ids=lambda params: f"N{params.n_agents}-threshold{params.threshold}",
)
def test_small_table_solves_keep_the_whole_stack_path(monkeypatch, params):
    # their stacks multiply whole, so their results keep their bits
    build = mfg._kernel
    cells = []

    def recording(policy, n):
        out = build(policy, n)
        cells.append(out[0].size)
        return out

    monkeypatch.setattr(mfg, "_kernel", recording)
    solve_equilibrium(params)
    assert max(cells) <= mfg._SELECT_CELLS


def test_formula_mode_solve_keeps_a_small_traced_peak():
    # The stack is built in blocks of about 2**16 cells; built in one piece
    # its log-pmf temporaries took this solve's peak to about 21 MiB.
    params = MfgParams(n_agents=1000, threshold=400, temperature=0.2, horizon=30,
                       reward_mode="formula")
    tracemalloc.start()
    try:
        solve_equilibrium(params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_pair_sums_within_the_input_slack_flow_and_simulate():
    # _check_policy admits pair sums off by up to 1e-9; the flow's mass
    # check measures what the kernel loses, so it does not judge them again
    params = small_params()
    policy = uniform_policy(params)
    policy[:, :, WAIT] += 5e-10
    flow = forward_flow(policy, params)
    assert np.abs(flow.sum(axis=1) - 1.0).max() < 1e-15
    stats = simulate_population(params, policy, episodes=100, seed=0)
    assert np.array_equal(stats.mf_mean_states, flow @ np.arange(params.n_agents + 1.0))
    assert math.isfinite(best_response_gap(policy, params))


def test_a_kernel_that_loses_mass_is_a_numerical_error(monkeypatch):
    build = mfg._binomial_pmf_rows
    monkeypatch.setattr(mfg, "_binomial_pmf_rows", lambda n, probs: build(n, probs) * (1.0 - 1e-9))
    params = small_params()
    with pytest.raises(NumericalIntegrityError, match="^distribution drifted by 1.000e-09 at step 0$"):
        forward_flow(uniform_policy(params), params)


def test_evolution_rejects_unnormalized_distribution():
    with pytest.raises(ValidationError, match="not normalized"):
        small_params(initial_distribution=(0.3,) * 5)


# ---------------------------------------------------------------------------
# softmax policy
# ---------------------------------------------------------------------------


def test_softmax_symmetry_and_closed_form():
    assert softmax_policy(np.array([2.0, 2.0]), 1.0) == pytest.approx([0.5, 0.5])
    got = softmax_policy(np.array([0.0, math.log(3.0)]), 1.0)
    assert got == pytest.approx([0.25, 0.75])


def test_softmax_is_overflow_safe():
    got = softmax_policy(np.array([0.0, 1000.0]), 1.0)
    assert got[MOVE] == pytest.approx(1.0)
    assert np.isfinite(got).all()


def test_softmax_rejects_non_finite_values():
    with pytest.raises(NumericalIntegrityError):
        softmax_policy(np.array([np.nan, 0.0]), 1.0)


@pytest.mark.parametrize("values", [[[1.0, 2.0, 3.0]], [1.0], 3.0, np.zeros((2, 3)), np.zeros((0,))],
                         ids=["three-actions", "one-action", "scalar", "pair-on-first-axis", "empty"])
def test_softmax_rejects_a_last_axis_that_is_not_the_pair(values):
    with pytest.raises(ValidationError, match="wait, move"):
        softmax_policy(values, 1.0)


@pytest.mark.parametrize("values", [["a", "b"], [[0.0, 1.0], [0.0]]], ids=["text", "ragged"])
def test_softmax_rejects_values_that_are_not_numeric_arrays(values):
    with pytest.raises(ValidationError, match="numeric array"):
        softmax_policy(values, 1.0)


@pytest.mark.parametrize("temperature", [None, "0.2", True, [0.2], 0.0, -1.0, np.nan],
                         ids=["none", "text", "bool", "list", "zero", "negative", "nan"])
def test_softmax_rejects_temperatures_that_are_not_positive_numbers(temperature):
    with pytest.raises(ValidationError, match="temperature must be a positive number"):
        softmax_policy([0.0, 1.0], temperature)


def test_softmax_low_temperature_approaches_argmax():
    row = np.array([0.3, 0.7])
    got = softmax_policy(row, 1e-4)
    assert got[MOVE] == pytest.approx(1.0)
    shifted = softmax_policy(row + 123.0, 1e-4)
    assert np.argmax(shifted) == np.argmax(got)


def _max_subtracted_pair_softmax(q, temperature):
    """Two exps per pair, max-subtracted: the formula softmax_policy's
    one-exp form replaced, kept as its bit-for-bit reference."""
    m = np.maximum(q[..., WAIT], q[..., MOVE])
    e = np.exp((q - m[..., None]) / temperature)
    return e / (e[..., WAIT] + e[..., MOVE])[..., None]


def test_one_exp_softmax_is_bit_identical_to_the_max_subtracted_pair_formula():
    rng = np.random.default_rng(17)
    specials = np.array([0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e300, -1e300,
                         np.finfo(float).max, -np.finfo(float).max])
    for trial in range(1500):
        shape = (rng.integers(1, 5), rng.integers(1, 40), 2)
        scale = 10.0 ** rng.integers(-8, 9)
        q = rng.normal(scale=scale, size=shape)
        # ties, signed zeros, huge and overflowing gaps, subnormals
        pick = rng.random(shape[:2]) < 0.2
        q[pick, MOVE] = q[pick, WAIT]
        odd = rng.random(shape) < 0.15
        q[odd] = rng.choice(specials, size=int(odd.sum()))
        temperature = 10.0 ** rng.uniform(-4.0, 2.0)
        with np.errstate(over="ignore"):  # gaps of 2 * float max overflow to inf
            got = softmax_policy(q, temperature)
            want = _max_subtracted_pair_softmax(q, temperature)
        # array_equal cannot tell -0.0 from 0.0; the bits can
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), trial


# ---------------------------------------------------------------------------
# backward recursion
# ---------------------------------------------------------------------------


def test_single_step_horizon_reduces_to_utilities():
    params = small_params(horizon=1)
    policy = uniform_policy(params)
    table = bellman_backward(policy, params)
    expected = utility_table(params)
    assert np.max(np.abs(table.q[0] - expected)) == 0.0


def test_zero_discount_is_myopic_at_every_stage():
    params = small_params(discount=0.0, horizon=5)
    policy = uniform_policy(params)
    table = bellman_backward(policy, params)
    expected = utility_table(params)
    for t in range(params.horizon):
        assert np.max(np.abs(table.q[t] - expected)) == 0.0


def test_two_step_values_match_manual_expansion():
    table = RewardTable(2.0, 1.0, 0.5, 0.0)
    params = MfgParams(
        n_agents=3, threshold=1, discount=0.8, horizon=2, reward_table=table
    )
    rng = np.random.default_rng(11)
    moves = rng.random((2, 4))
    policy = np.stack([1 - moves, moves], axis=2)
    got = bellman_backward(policy, params)

    def u(a, j):
        return oracle.utility(
            a,
            j,
            oracle.make_params(3, 1, discount=0.8, horizon=2, reward_table=(2.0, 1.0, 0.5, 0.0)),
        )

    # terminal layer is zero; t=1 is pure utility
    for j in range(4):
        for a in (WAIT, MOVE):
            assert got.q[2, j, a] == 0.0
            assert got.q[1, j, a] == pytest.approx(u(a, j), abs=1e-12)
    # t=0 expands over the 4-outcome binomial of the 2 peers
    for j in range(4):
        p = moves[0, j]
        for a in (WAIT, MOVE):
            expect = 0.0
            for k in range(3):
                weight = math.comb(2, k) * p**k * (1 - p) ** (2 - k)
                expect += weight * max(u(WAIT, k + a), u(MOVE, k + a))
            assert got.q[0, j, a] == pytest.approx(u(a, j) + 0.8 * expect, abs=1e-12)


def test_backward_recursion_is_bit_reproducible():
    params = small_params(horizon=6)
    rng = np.random.default_rng(5)
    moves = rng.random((6, 5))
    policy = np.stack([1 - moves, moves], axis=2)
    first = bellman_backward(policy, params)
    second = bellman_backward(policy, params)
    assert np.array_equal(first.q, second.q)
    assert np.array_equal(first.v, second.v)


# ---------------------------------------------------------------------------
# equilibrium solver
# ---------------------------------------------------------------------------


def test_flat_utilities_converge_immediately_to_uniform():
    # enormous smoothing flattens the logistic to 1/2 for both actions
    params = MfgParams(
        n_agents=6, threshold=3, smoothing=1e12, reward_mode="formula",
        temperature=1.0, horizon=4,
    )
    result = solve_equilibrium(params, tol=1e-8, max_iter=50, damping=0.5)
    assert result.converged
    assert result.iterations == 1
    assert np.max(np.abs(result.policy - 0.5)) < 1e-9


def test_solver_matches_scratch_oracle_after_fixed_iterations():
    params = MfgParams(n_agents=4, threshold=2, discount=0.9, temperature=0.5, horizon=3)
    result = solve_equilibrium(params, tol=0.0, max_iter=60, damping=0.5)
    assert result.iterations == 60
    oracle_params = oracle.make_params(
        4, 2, discount=0.9, temperature=0.5, horizon=3
    )
    oracle_policy, oracle_flow = oracle.solve(oracle_params, 60, damping=0.5)
    assert np.max(np.abs(result.policy - np.array(oracle_policy))) < 1e-8
    assert np.max(np.abs(result.flow - np.array(oracle_flow))) < 1e-8


def test_converged_solution_is_a_fixed_point():
    params = small_params(temperature=1.0, horizon=4)
    result = solve_equilibrium(params, tol=1e-10, max_iter=400, damping=0.5)
    assert result.converged
    table = bellman_backward(result.policy, params)
    target = softmax_policy(table.q[: params.horizon], params.temperature)
    assert np.max(np.abs(target - result.policy)) < 1e-8
    refreshed = forward_flow(result.policy, params)
    assert np.max(np.abs(refreshed - result.flow)) == 0.0


def test_myopic_equilibrium_is_softmax_of_utilities():
    params = small_params(discount=0.0, temperature=0.7, horizon=4)
    result = solve_equilibrium(params, tol=1e-12, max_iter=300, damping=0.5)
    assert result.converged
    expected = softmax_policy(utility_table(params), params.temperature)
    for t in range(params.horizon):
        assert np.max(np.abs(result.policy[t] - expected)) < 1e-10


@pytest.mark.parametrize("threshold", [350, 400, 450])
def test_large_population_equilibrium_is_the_static_logit_response(threshold):
    # Oracle B: as N grows with threshold/N fixed, an agent's own action
    # stops moving the next count's law, so q_move - q_wait tends to
    # dU(j) = U(j, MOVE) - U(j, WAIT) and the policy to sigmoid(dU / tau);
    # at N=1000 the two agree to the solve's tolerance
    params = MfgParams(n_agents=1000, threshold=threshold, discount=0.9, temperature=0.2,
                       horizon=30, reward_mode="table")
    tol = 1e-8
    result = solve_equilibrium(params, tol=tol)
    assert result.converged
    utilities = utility_table(params)
    limit = 1.0 / (1.0 + np.exp(-(utilities[:, MOVE] - utilities[:, WAIT]) / params.temperature))
    assert np.max(np.abs(result.policy[:, :, MOVE] - limit)) < tol


STAGEWISE_CASES = [
    pytest.param(20, threshold, temperature, mode, id=f"{threshold}-{temperature}-{mode}")
    for threshold in (4, 8, 13) for temperature in (0.2, 1.0) for mode in ("table", "formula")
] + [
    # each costs about ten N=20 cases of oracle time, so three cover both modes
    pytest.param(200, 80, 0.2, "table", id="N200-80-0.2-table"),
    pytest.param(200, 90, 1.0, "table", id="N200-90-1.0-table"),
    pytest.param(200, 80, 0.2, "formula", id="N200-80-0.2-formula"),
]


@pytest.mark.parametrize("n_agents, threshold, temperature, mode", STAGEWISE_CASES)
def test_equilibrium_policy_is_the_stagewise_backward_induction(
    n_agents, threshold, temperature, mode
):
    # Oracle A: each (t, j)'s move probability solves a scalar equation
    # given v[t + 1]; where every equation has one root, that root is the
    # fixed point, and the solve must land within its tolerance of it
    extra = {"reward_mode": "formula", "consistency_weight": 0.05} if mode == "formula" else {}
    sizes = {"n_agents": n_agents, "threshold": threshold, "discount": 0.9,
             "temperature": temperature, "horizon": 30, **extra}
    move, sign_changes = stagewise.stagewise_policy(oracle.make_params(**sizes))
    assert np.all(sign_changes == 1)
    tol = 1e-8
    result = solve_equilibrium(MfgParams(**sizes), tol=tol)
    assert result.converged
    reference = np.stack([1.0 - move, move], axis=-1)
    assert np.max(np.abs(result.policy - reference)) < tol


def test_nonconvergence_is_flagged_not_raised():
    # the induction's start is a fixed point to rounding, so only a tol
    # below one sweep's rounding keeps the loop from stopping
    params = small_params(temperature=1.0)
    result = solve_equilibrium(params, tol=1e-300, max_iter=2, damping=0.5)
    assert isinstance(result, EquilibriumResult)
    assert not result.converged
    assert result.iterations == 2
    assert len(result.residual_history) == 2


def test_solver_made_nan_is_a_numerical_integrity_error(monkeypatch):
    def nan_kernels(n, probs):
        return np.full((len(probs), n + 1), np.nan)

    monkeypatch.setattr(mfg, "_binomial_pmf_rows", nan_kernels)
    with pytest.raises(NumericalIntegrityError):
        solve_equilibrium(small_params(), max_iter=3)


def test_one_sweep_verifies_the_induction_on_the_default_instance():
    result = solve_equilibrium(default_params(), tol=1e-8, max_iter=500, damping=0.5)
    assert result.converged
    assert result.iterations == 1
    ((policy_residual, dist_residual),) = result.residual_history
    assert policy_residual < 1e-12 and dist_residual < 1e-12


def test_where_an_equation_has_three_roots_the_solve_keeps_the_newton_root():
    # At the threshold state of this instance, dU is 0 and the scalar
    # equation of every step but the last has three roots. The solver keeps the root its guarded
    # Newton reaches from the t + 1 root; the oracle's bisection from [0, 1]
    # finds another, about 0.19 away. Both are fixed points, and every
    # single-root state agrees with the oracle.
    sizes = {"n_agents": 20, "threshold": 10, "discount": 0.9, "temperature": 0.05,
             "horizon": 30, "reward_mode": "formula"}
    move, sign_changes = stagewise.stagewise_policy(oracle.make_params(**sizes))
    assert sign_changes.max() == 3
    result = solve_equilibrium(MfgParams(**sizes))
    assert result.converged and result.iterations == 1
    assert max(result.residual_history[0]) < 1e-12
    gap = np.abs(result.policy[:, :, MOVE] - move)
    assert gap[sign_changes == 1].max() < 1e-8
    assert gap[sign_changes == 3].max() > 0.1


def test_a_subnormal_temperature_settles_each_step_in_one_evaluation(monkeypatch):
    # every logit lies far beyond +-_LOGIT_BOUND, where the bracket stops and
    # the policy is already exactly 0 or 1, so no step runs to the search's
    # cap; 1e-308 is subnormal, and its reciprocal is still finite
    params = MfgParams(n_agents=20, threshold=8, temperature=1e-308, horizon=30)
    calls = []
    build_rows = mfg._binomial_pmf_rows

    def counted_rows(n, probs):
        calls.append(n)
        return build_rows(n, probs)

    monkeypatch.setattr(mfg, "_binomial_pmf_rows", counted_rows)
    with np.errstate(over="raise", divide="raise"):
        policy = mfg._induction_policy(params)
        assert len(calls) == params.horizon
        result = solve_equilibrium(params)
    assert set(np.unique(policy)) == {0.0, 1.0}
    assert result.converged and result.iterations == 1


def test_a_solve_the_damped_loop_could_not_finish_now_converges():
    # Started from the uniform policy, 500 damped sweeps ended with
    # residuals 0.83 and 0.29 on this instance.
    params = MfgParams(n_agents=200, threshold=40, discount=0.9, temperature=0.05,
                       horizon=30, consistency_weight=0.1)
    result = solve_equilibrium(params)
    assert result.converged and result.iterations == 1
    assert max(result.residual_history[0]) < 1e-12


# ---------------------------------------------------------------------------
# exploitability certificate
# ---------------------------------------------------------------------------


def test_exploitability_is_nonnegative_and_matches_oracle():
    params = MfgParams(n_agents=10, threshold=4, discount=0.9, temperature=0.2, horizon=8)
    result = solve_equilibrium(params, tol=1e-9, max_iter=400, damping=0.5)
    assert result.converged
    # a seeded random policy is far from equilibrium, so its policy backup
    # differs from the greedy one by much more than the tolerance
    moves = np.random.default_rng(7).random((8, 11))
    off_equilibrium = np.stack([1 - moves, moves], axis=2)
    spread = np.full(11, 1.0 / 11.0)
    spread_params = dataclasses.replace(params, initial_distribution=tuple(spread))
    cases = [
        (exploitability(result, params), result.policy, result.flow[0]),
        (best_response_gap(off_equilibrium, spread_params), off_equilibrium, spread),
    ]
    oracle_params = oracle.make_params(
        10, 4, discount=0.9, temperature=0.2, horizon=8
    )
    for value, policy, initial in cases:
        assert value >= -1e-9
        oracle_value = oracle.exploitability(
            [row.tolist() for row in policy],
            initial.tolist(),
            oracle_params,
        )
        assert value == pytest.approx(oracle_value, abs=1e-8)


@pytest.mark.parametrize(
    "initial, match",
    [
        (np.full(12, 1.0 / 12.0), "initial_distribution must have n_agents \\+ 1 entries"),
        (np.full(10, 0.1), "initial_distribution must have n_agents \\+ 1 entries"),
        (np.r_[np.nan, np.full(10, 0.1)], "initial_distribution has non-finite entries"),
        (np.r_[-0.5, 1.5, np.zeros(9)], "initial_distribution has negative entries"),
        (np.full(11, 0.5), "initial_distribution is not normalized"),
    ],
    ids=["too-long", "too-short", "nan", "negative", "unnormalized"],
)
def test_initial_distributions_that_are_not_laws_are_rejected(initial, match):
    # the certificate averages over the model's own initial law, which
    # MfgParams checks once
    with pytest.raises(ValidationError, match=match):
        MfgParams(n_agents=10, threshold=4, horizon=3, initial_distribution=tuple(initial))


def counting_stacks(monkeypatch):
    """Record the number of rows in each kernel stack built, checking that
    it is the number of distinct move probabilities in the whole policy and
    that no block of a stack's build computes a row twice. The induction's
    pmf calls are not checked: it builds one row per utility-gap group, and
    formula-mode groups can round to the same probability."""
    rows = []
    building = []
    build_rows, build_stack = mfg._binomial_pmf_rows, mfg._kernel

    def checked_rows(n, probs):
        out = build_rows(n, probs)
        assert not building or len(out) == np.unique(probs).size
        return out

    def counting_stack(policy, n):
        building.append(True)
        try:
            out = build_stack(policy, n)
        finally:
            building.pop()
        assert len(out[0]) == np.unique(policy[:, :, MOVE]).size
        rows.append(len(out[0]))
        return out

    monkeypatch.setattr(mfg, "_binomial_pmf_rows", checked_rows)
    monkeypatch.setattr(mfg, "_kernel", counting_stack)
    return rows


def test_each_policy_builds_one_kernel_stack(monkeypatch):
    rows = counting_stacks(monkeypatch)
    params = small_params(horizon=5)
    # slice t moves with t + 1 distinct probabilities
    policy = np.stack(
        [policy_with_distinct_moves(params.n_agents, 1, t + 1, np.random.default_rng(t))[0]
         for t in range(params.horizon)]
    )
    distinct = np.unique(policy[:, :, MOVE]).size
    best_response_gap(policy, params)
    forward_flow(policy, params)
    assert rows == [distinct, distinct]
    rows.clear()
    result = solve_equilibrium(params, tol=1e-8, max_iter=100)
    # the induction's start, then one stack per damped update, each serving
    # its forward flow, the next backward pass and, last, the certificate
    # and the final greedy values
    assert len(rows) == result.iterations + 1
    assert rows[0] == np.unique(mfg._induction_policy(params)[:, :, MOVE]).size


def test_table_mode_solves_large_populations_with_few_kernel_rows(monkeypatch):
    rows = counting_stacks(monkeypatch)
    params = MfgParams(n_agents=5000, threshold=2000, temperature=0.2, horizon=30)
    result = solve_equilibrium(params, tol=1e-8, max_iter=100)
    # a structural guard on the solve's cost, in place of a timing bound:
    # one verifying sweep, so two stacks, the induction's and its update's
    assert result.converged and result.iterations == 1
    assert len(rows) == 2
    assert max(rows) <= 3 * params.horizon


@pytest.mark.parametrize("mode", ["table", "formula"])
def test_n1000_solves_take_one_sweep_and_two_kernel_stacks(monkeypatch, mode):
    rows = counting_stacks(monkeypatch)
    params = MfgParams(n_agents=1000, threshold=400, temperature=0.2, horizon=30,
                       reward_mode=mode)
    result = solve_equilibrium(params)
    assert result.converged and result.iterations == 1
    assert len(rows) == 2


def test_uniform_policy_is_exploitable_when_actions_separate():
    params = MfgParams(
        n_agents=6, threshold=3,
        reward_table=RewardTable(5.0, 0.5, 0.4, 0.0), horizon=4,
    )
    gap = best_response_gap(uniform_policy(params), params)
    assert gap > 0.1


def test_sharper_policies_are_less_exploitable():
    values = []
    for tau in (1.0, 0.25, 0.05):
        params = small_params(temperature=tau, horizon=4)
        result = solve_equilibrium(params, tol=1e-10, max_iter=2000, damping=0.3)
        assert result.converged
        values.append(exploitability(result, params))
    assert values[0] > values[1] > values[2]
    assert values[2] < 5e-2


# ---------------------------------------------------------------------------
# finite population simulation
# ---------------------------------------------------------------------------


def test_everyone_moving_is_deterministic():
    params = small_params(horizon=4)
    policy = np.zeros((4, params.n_agents + 1, 2))
    policy[:, :, MOVE] = 1.0
    stats = simulate_population(params, policy, episodes=3, seed=9)
    for t in range(1, 5):
        assert stats.state_frequencies[t, params.n_agents] == 1.0
    assert stats.deviation < 1e-12


def test_two_agent_population_matches_hand_tally():
    # deterministic oscillation: both move from 0, both wait from 2
    params = MfgParams(n_agents=2, threshold=1, horizon=4)
    policy = np.zeros((4, 3, 2))
    policy[:, 0, MOVE] = 1.0
    policy[:, 1, WAIT] = 1.0
    policy[:, 2, WAIT] = 1.0
    stats = simulate_population(params, policy, episodes=5, seed=21)
    # states visit 0 -> 2 -> 0 -> 2 -> 0
    assert stats.mean_states == pytest.approx([0, 2, 0, 2, 0])
    assert stats.deviation < 1e-12


def test_empirical_flow_tracks_mean_field():
    params = MfgParams(n_agents=300, threshold=120, temperature=0.2, horizon=6)
    result = solve_equilibrium(params, tol=1e-6, max_iter=200, damping=0.5)
    stats = simulate_population(params, result.policy, episodes=40, seed=4)
    assert stats.deviation < 0.05


def _random_policy(params, seed, levels=None):
    """A policy with random move probabilities, or ones drawn from `levels`."""
    rng = np.random.default_rng(seed)
    shape = (params.horizon, params.n_agents + 1)
    move = rng.random(shape) if levels is None else rng.choice(levels, size=shape)
    return np.stack([1.0 - move, move], axis=-1)


def _dirichlet_law(n_agents, seed):
    return tuple(np.random.default_rng(seed).dirichlet(np.ones(n_agents + 1)))


SIMULATOR_CASES = {
    "two-agents": (MfgParams(n_agents=2, threshold=1, horizon=5), None, 50),
    "one-step": (MfgParams(n_agents=7, threshold=3, horizon=1), None, 40),
    "n200-7-episodes": (MfgParams(n_agents=200, threshold=80, horizon=30), None, 7),
    "n200-25-episodes": (MfgParams(n_agents=200, threshold=80, horizon=30), None, 25),
    # far more episodes than float64 counts hold exactly; the histogram
    # chain's cost does not grow with them
    "10**12-episodes": (MfgParams(n_agents=30, threshold=12, horizon=8), None, 10**12),
    "dirichlet-initial": (
        MfgParams(n_agents=50, threshold=20, horizon=40, reward_mode="formula",
                  smoothing=3.0, initial_distribution=_dirichlet_law(50, 5)),
        None, 70,
    ),
    # an entry down to -1e-9 is accepted and clipped before the start draw
    "negative-initial-entry": (
        MfgParams(n_agents=5, threshold=2, horizon=6,
                  initial_distribution=(1.0 + 1e-10, -1e-10, 0.0, 0.0, 0.0, 0.0)),
        None, 60,
    ),
    "zero-one-policy": (MfgParams(n_agents=9, threshold=4, horizon=6), (0.0, 0.5, 1.0), 30),
}


@pytest.mark.parametrize("case", SIMULATOR_CASES.values(), ids=SIMULATOR_CASES.keys())
def test_the_flow_is_the_law_of_a_binomial_mover_count(case):
    # every agent at state j moves with the same probability, so the next
    # count is Binomial(N, p): the law the simulator samples
    params, levels, _ = case
    policy = _random_policy(params, 11, levels)
    law = initial_distribution_array(params)
    flow = forward_flow(policy, params)
    assert np.max(np.abs(flow[0] - law)) <= 1e-13
    for t in range(params.horizon):
        law = law @ mfg._binomial_pmf_rows(params.n_agents, policy[t, :, MOVE])
        assert np.max(np.abs(flow[t + 1] - law)) <= 1e-13, t


@pytest.mark.parametrize("case", SIMULATOR_CASES.values(), ids=SIMULATOR_CASES.keys())
def test_simulated_mean_counts_stay_within_five_standard_errors_of_the_flow(case):
    # Five standard errors: a two-sided normal tail of 5.7e-7 per step, so
    # the bound comes from the law, not from the draws of this seed.
    params, levels, episodes = case
    policy = _random_policy(params, 11, levels)
    started = time.perf_counter()
    stats = simulate_population(params, policy, episodes=episodes, seed=13)
    # generous: a run's cost does not grow with the episode count
    assert time.perf_counter() - started < 10.0
    counts = np.arange(params.n_agents + 1)
    flow = forward_flow(policy, params)
    means = flow @ counts
    # about the mean, so a point mass has sd exactly 0
    sd = np.sqrt((flow * (counts - means[:, None]) ** 2).sum(axis=1))
    assert np.array_equal(stats.mf_mean_states, means)
    gap = np.abs(stats.mean_states - means)
    assert np.all(gap[sd == 0.0] == 0.0)
    assert np.all(gap <= 5.0 * sd / math.sqrt(episodes))
    assert stats.deviation == float(np.max(gap) / params.n_agents)


def test_move_probabilities_just_outside_zero_and_one_are_clipped():
    # _check_policy admits entries 1e-9 outside [0, 1], which
    # Generator.binomial would reject
    params = MfgParams(n_agents=6, threshold=2, horizon=4)
    policy = np.zeros((4, 7, 2))
    policy[:, :, MOVE] = -5e-10
    policy[:, :, WAIT] = 1.0 + 5e-10
    policy[::2, 0] = (-5e-10, 1.0 + 5e-10)
    stats = simulate_population(params, policy, episodes=20, seed=3)
    # everyone moves from 0 at even steps and nobody moves from 6
    assert stats.mean_states.tolist() == [0.0, 6.0, 0.0, 6.0, 0.0]


def test_simulator_reruns_are_bit_identical():
    params = MfgParams(n_agents=60, threshold=25, horizon=12,
                       initial_distribution=_dirichlet_law(60, 2))
    policy = _random_policy(params, 4)
    first = simulate_population(params, policy, episodes=90, seed=6)
    second = simulate_population(params, policy, episodes=90, seed=6)
    for field in dataclasses.fields(first):
        a, b = getattr(first, field.name), getattr(second, field.name)
        assert np.array_equal(a, b) and type(a) is type(b), field.name


def test_simulator_traced_memory_stays_bounded():
    # The bench's population workload (N=200, H=30) keeps its peak RSS within
    # its 5% bound (about 1.8 MiB) only while the simulator's own allocations
    # stay this small: the policy check, the one-row kernel stack, the flow,
    # the rows' move probabilities and the (H+1, N+1) visit histogram. Each
    # step adds only a law and a draw of (rows in use, N+1) cells, whatever
    # the episode count. The warm-up call keeps one-time lazy set-up (about
    # 0.8 MiB) out of it.
    params = MfgParams(n_agents=200, threshold=80, horizon=30)
    policy = uniform_policy(params)
    simulate_population(params, policy, episodes=1, seed=0)
    tracemalloc.start()
    try:
        simulate_population(params, policy, episodes=2000, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * 2**20


def test_the_simulator_takes_as_many_episodes_as_one_multinomial_draw():
    # Per-row episode counts above 2**53 would round as float sums, and
    # 2**63 - 1 would round up past what Generator.multinomial takes.
    params = MfgParams(n_agents=12, threshold=5, horizon=6)
    policy = _random_policy(params, 8, (0.0, 0.3, 0.7))
    stats = simulate_population(params, policy, episodes=mfg._MAX_EPISODES, seed=2)
    assert mfg._MAX_EPISODES == 2**63 - 1
    # the frequencies are the counts over episodes, each rounded once
    assert np.max(np.abs(stats.state_frequencies.sum(axis=1) - 1.0)) <= 1e-14
    assert stats.deviation < 1e-6


@pytest.mark.parametrize("episodes", [2**63, 10**30])
def test_more_episodes_than_one_multinomial_draw_takes_are_rejected(episodes):
    params = MfgParams(n_agents=12, threshold=5, horizon=6)
    with pytest.raises(ValidationError, match="episodes must be at most 9223372036854775807"):
        simulate_population(params, uniform_policy(params), episodes=episodes, seed=0)
