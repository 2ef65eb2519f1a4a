import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mfg_scratch_oracle as oracle
from coopdyn.mfg import (
    MOVE,
    WAIT,
    MfgParams,
    bellman_backward,
    forward_flow,
    simulate_population,
    softmax_policy,
    transition_distribution,
    uniform_policy,
)

from test_mfg import enumerate_transition, step


@given(
    st.integers(2, 8),
    st.integers(0, 1),
    st.floats(0.0, 1.0),
)
@settings(max_examples=120)
def test_transition_agrees_with_enumeration(n_agents, action, p_move):
    got = transition_distribution(action, p_move, n_agents)
    want = enumerate_transition(n_agents, action, p_move)
    assert np.max(np.abs(got - want)) < 1e-12


@given(st.data())
@settings(max_examples=60)
def test_evolution_preserves_normalization(data):
    n = data.draw(st.integers(2, 12))
    raw = data.draw(
        st.lists(st.floats(0.01, 1.0), min_size=n + 1, max_size=n + 1)
    )
    dist = np.array(raw)
    dist /= dist.sum()
    moves = np.array(
        data.draw(st.lists(st.floats(0.0, 1.0), min_size=n + 1, max_size=n + 1))
    )
    policy = np.stack([1.0 - moves, moves], axis=1)
    params = MfgParams(n_agents=n, threshold=max(1, n // 2))
    out = step(dist, policy, params)
    assert abs(out.sum() - 1.0) < 1e-12
    assert np.all(out >= 0.0)


@given(
    st.floats(-50, 50),
    st.floats(-50, 50),
    st.floats(0.05, 5.0),
    st.floats(-100, 100),
)
def test_softmax_shift_invariance_of_argmax(q_wait, q_move, tau, shift):
    row = np.array([q_wait, q_move])
    base = softmax_policy(row, tau)
    shifted = softmax_policy(row + shift, tau)
    assert base == pytest.approx(shifted, abs=1e-9)
    assert abs(base.sum() - 1.0) < 1e-12


def test_softmax_sharpens_to_one_hot_as_temperature_vanishes():
    row = np.array([1.0, 1.3])
    previous = 0.0
    for tau in (1.0, 0.3, 0.1, 0.03, 0.01):
        prob = softmax_policy(row, tau)[MOVE]
        assert prob > previous
        previous = prob
    assert previous > 1.0 - 1e-10


# a gap of 746 temperatures puts the smaller exponent below -745.13, where
# float64 exp underflows to exactly 0
UNDERFLOW_GAP = 746.0


@st.composite
def action_value_arrays(draw):
    """(q, temperature, kinds): q of shape (2,), (k, 2) or (H, N+1, 2) whose
    pairs are free, tied, or a gap of at least UNDERFLOW_GAP temperatures."""
    lead = draw(st.one_of(st.just(()), st.tuples(st.integers(1, 6)),
                          st.tuples(st.integers(1, 4), st.integers(3, 9))))
    temperature = draw(st.floats(1e-4, 10.0))
    cells = st.floats(-1e3, 1e3)
    pairs, kinds = [], []
    for _ in range(int(np.prod(lead, dtype=int))):
        kind = draw(st.sampled_from(["free", "tie", "underflow"]))
        first = draw(cells)
        if kind == "free":
            pair = [first, draw(cells)]
        elif kind == "tie":
            pair = [first, first]
        else:
            pair = [first, first - draw(st.floats(UNDERFLOW_GAP, 2000.0)) * temperature]
            if draw(st.booleans()):
                pair.reverse()
        pairs.append(pair)
        kinds.append(kind)
    return np.array(pairs).reshape(*lead, 2), temperature, np.array(kinds).reshape(lead)


@given(action_value_arrays())
@settings(max_examples=200)
def test_pair_softmax_is_bit_identical_to_the_general_axis_formula(case):
    q, temperature, kinds = case
    got = softmax_policy(q, temperature)
    assert got.shape == q.shape
    assert np.array_equal(got, oracle.softmax_reduce(q, temperature))
    assert np.all(got[kinds == "tie"] == 0.5)
    assert np.all(got[kinds == "underflow"].min(axis=-1) == 0.0)


@pytest.mark.parametrize("temperature", [1e-4, 0.2, 10.0])
def test_pair_softmax_matches_the_general_axis_formula_on_solver_tables(temperature):
    params = MfgParams(n_agents=1000, threshold=400, temperature=temperature, horizon=30)
    q = bellman_backward(uniform_policy(params), params).q[: params.horizon]
    assert np.array_equal(softmax_policy(q, temperature), oracle.softmax_reduce(q, temperature))


def _constant_policy(params, p_move):
    policy = np.full((params.horizon, params.n_agents + 1, 2), 0.0)
    policy[:, :, MOVE] = p_move
    policy[:, :, WAIT] = 1.0 - p_move
    return policy


def test_mean_field_deviation_shrinks_with_population_size():
    """Median sup-t deviation over seeds must drop from N=500 to N=2000."""
    horizon = 6
    episodes = 4
    medians = {}
    for n in (500, 2000):
        params = MfgParams(n_agents=n, threshold=n // 2, horizon=horizon)
        policy = _constant_policy(params, 0.5)
        deviations = []
        for seed in range(20):
            stats = simulate_population(params, policy, episodes=episodes, seed=seed)
            deviations.append(stats.deviation)
        medians[n] = float(np.median(deviations))
    assert medians[2000] < medians[500]


def test_constant_policy_flow_is_stationary_after_one_step():
    # under a state-independent policy the count is Binomial(N, p) at every
    # t >= 1, a useful closed-form anchor for the flow computation
    params = MfgParams(n_agents=40, threshold=16, horizon=5)
    policy = _constant_policy(params, 0.3)
    flow = forward_flow(policy, params)
    counts = np.arange(41.0)
    for t in range(1, 6):
        assert flow[t] @ counts == pytest.approx(40 * 0.3, abs=1e-9)
        assert np.max(np.abs(flow[t] - flow[1])) < 1e-12
